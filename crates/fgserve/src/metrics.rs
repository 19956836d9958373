//! Service observability: lock-free counters on the request path, a bounded
//! latency reservoir, and a JSON-exportable snapshot.
//!
//! Counters are plain relaxed atomics — the request path must never contend
//! on a metrics lock. Only the latency reservoir takes a mutex, once per
//! *completed* request (not per attempt), and stays bounded via reservoir
//! sampling (Vitter's Algorithm R): after the cap is reached each later
//! sample replaces a random slot with probability `cap / seen`, so the
//! retained set is a uniform sample over the whole run — steady-state
//! percentiles are not frozen at whatever the warmup produced.

use fgfft::planner::PlannerStats;
use fgsupport::bench::Percentiles;
use fgsupport::json::Value;
use fgsupport::rng::Rng64;
use fgsupport::sync::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bounded uniform sample of completion latencies (Algorithm R).
#[derive(Debug)]
pub(crate) struct Reservoir {
    samples: Vec<u64>,
    /// Total values offered, including those not retained.
    seen: u64,
    rng: Rng64,
    cap: usize,
}

impl Reservoir {
    fn new(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            seen: 0,
            // Any fixed seed works: the reservoir needs uniformity across
            // the offer sequence, not unpredictability.
            rng: Rng64::seed_from_u64(0x1a7e_5a3b_1e5e_701d),
            cap,
        }
    }

    /// Offer one value; it is retained with probability `cap / seen`.
    fn offer(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else if self.cap > 0 {
            let slot = self.rng.gen_below(self.seen);
            if (slot as usize) < self.cap {
                self.samples[slot as usize] = value;
            }
        }
    }
}

/// Shared mutable metrics state, owned by the service and its dispatchers.
#[derive(Debug)]
pub(crate) struct Metrics {
    /// Requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Requests rejected by admission control (`Overloaded`).
    pub rejected: AtomicU64,
    /// Requests completed successfully. Incremented with `Release` (see
    /// [`Metrics::snapshot`]); use [`Metrics::on_complete`].
    pub completed: AtomicU64,
    /// Requests dropped because their deadline passed before dispatch (or
    /// expired during it — checked again at settlement). Incremented with
    /// `Release`; use [`Metrics::on_deadline_missed`].
    pub deadline_missed: AtomicU64,
    /// Requests that failed with [`crate::ServeError::Internal`] — a panic
    /// in their dispatch, or abandonment by a dying dispatcher.
    /// Incremented with `Release`; use [`Metrics::on_failed`].
    pub failed: AtomicU64,
    /// Cold-plan requests the slow-start gate deferred back to the queue
    /// (served later; never dropped, never recounted as accepted).
    pub cold_deferred: AtomicU64,
    /// Runtime dispatches performed to completion (each served ≥ 1 request).
    pub batches: AtomicU64,
    /// Requests served by those completed dispatches — the numerator of
    /// the mean batch size (deadline-missed and failed requests never made
    /// it through a dispatch and must not dilute the mean).
    pub dispatched: AtomicU64,
    /// Requests served through a batch of size ≥ 2.
    pub batched_requests: AtomicU64,
    /// Dispatcher threads respawned by the supervisor after dying.
    pub dispatcher_restarts: AtomicU64,
    /// Wire-protocol submissions rejected before reaching admission — bad
    /// slot headers, unknown sessions, ring violations. These never become
    /// `accepted`, so they sit outside the settlement identity (like
    /// `rejected`), but they are first-class signal for
    /// operators watching a misbehaving remote client.
    pub wire_rejections: AtomicU64,
    /// Highest queue depth observed at admission.
    pub queue_high_water: AtomicUsize,
    /// Completed-request latencies in nanoseconds, reservoir-sampled.
    pub latencies_ns: Mutex<Reservoir>,
}

impl Metrics {
    pub(crate) fn new(latency_cap: usize) -> Self {
        Self {
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cold_deferred: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            dispatcher_restarts: AtomicU64::new(0),
            wire_rejections: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            latencies_ns: Mutex::new(Reservoir::new(latency_cap)),
        }
    }

    /// Record an admission at post-push queue depth `depth`.
    pub(crate) fn on_accept(&self, depth: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record a completion observed `latency_ns` after submission.
    ///
    /// The `Release` increment pairs with the `Acquire` load in
    /// [`Metrics::snapshot`]: a snapshot that observes this settlement also
    /// observes the `accepted` increment that preceded it, so
    /// `settled() <= accepted` holds in every snapshot, not just quiescent
    /// ones.
    pub(crate) fn on_complete(&self, latency_ns: u64) {
        self.completed.fetch_add(1, Ordering::Release);
        self.latencies_ns.lock().offer(latency_ns);
    }

    /// Record a deadline miss (see [`Metrics::on_complete`] for ordering).
    pub(crate) fn on_deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Release);
    }

    /// Record an internal failure (see [`Metrics::on_complete`] for
    /// ordering).
    pub(crate) fn on_failed(&self) {
        self.failed.fetch_add(1, Ordering::Release);
    }

    /// Record one completed runtime dispatch serving `requests` requests.
    pub(crate) fn on_batch(&self, requests: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.dispatched
            .fetch_add(requests as u64, Ordering::Relaxed);
        if requests >= 2 {
            self.batched_requests
                .fetch_add(requests as u64, Ordering::Relaxed);
        }
    }

    /// Snapshot everything, folding in the planner's cache stats.
    ///
    /// **Load order is the correctness fix for torn snapshots.** Every
    /// settlement is preceded (in real time and by a happens-before chain
    /// through the queue) by its request's `accepted` increment. Loading
    /// the settlement counters *first* (`Acquire`, pairing with the
    /// `Release` increments) and `accepted` *after* therefore yields
    /// `settled() <= accepted` in every snapshot: any settlement we
    /// observed has its admission visible by the time `accepted` is read,
    /// and admissions that settle between the two loads only push
    /// `accepted` higher. The old order (accepted first) allowed a
    /// mid-flight snapshot to see `settled() > accepted`.
    pub(crate) fn snapshot(&self, planner: PlannerStats) -> ServeStats {
        let completed = self.completed.load(Ordering::Acquire);
        let deadline_missed = self.deadline_missed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let accepted = self.accepted.load(Ordering::Relaxed);
        let mut samples: Vec<f64> = self
            .latencies_ns
            .lock()
            .samples
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        ServeStats {
            accepted,
            rejected: self.rejected.load(Ordering::Relaxed),
            throttled: 0,
            completed,
            deadline_missed,
            failed,
            cold_deferred: self.cold_deferred.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            dispatcher_restarts: self.dispatcher_restarts.load(Ordering::Relaxed),
            wire_rejections: self.wire_rejections.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            latency_ms: Percentiles::from_unsorted(&mut samples),
            planner,
        }
    }
}

/// A point-in-time snapshot of the service's behavior, safe to take at any
/// moment (counters are monotonic; the snapshot is not atomic across
/// fields).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests rejected by per-tenant QoS before queueing. Tenants are
    /// charged only at the cluster front door, so a service's own snapshot
    /// reads 0; [`crate::ClusterStats::throttled`] holds the count.
    pub throttled: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests dropped because their deadline had passed at dispatch or
    /// at settlement.
    pub deadline_missed: u64,
    /// Requests that failed with [`crate::ServeError::Internal`].
    pub failed: u64,
    /// Cold-plan requests deferred by the slow-start gate (later served).
    pub cold_deferred: u64,
    /// Runtime dispatches that completed (each served one same-plan batch).
    pub batches: u64,
    /// Requests served by those completed dispatches.
    pub dispatched: u64,
    /// Requests that shared a dispatch with at least one other request.
    pub batched_requests: u64,
    /// Dispatcher threads the supervisor respawned after unexpected death.
    pub dispatcher_restarts: u64,
    /// Wire-protocol submissions rejected before admission (bad headers,
    /// unknown sessions, ring violations); zero for in-process services.
    pub wire_rejections: u64,
    /// Highest submission-queue depth observed.
    pub queue_high_water: usize,
    /// Completion latency distribution, milliseconds, over a uniform
    /// reservoir sample of the whole run.
    pub latency_ms: Percentiles,
    /// Plan-cache behavior (hits, misses, builds, residency).
    pub planner: PlannerStats,
}

impl ServeStats {
    /// Requests the service has fully accounted for so far:
    /// `completed + deadline_missed + failed` — equals `accepted` once the
    /// service has drained (the accounting identity every shutdown must
    /// satisfy, panics included).
    pub fn settled(&self) -> u64 {
        self.completed + self.deadline_missed + self.failed
    }

    /// Mean batch size over all completed dispatches (1.0 when nothing
    /// dispatched). Only requests that actually went through a dispatch
    /// count — deadline-missed and failed requests are excluded from the
    /// numerator.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.dispatched as f64 / self.batches as f64
        }
    }

    /// The whole snapshot as a JSON value (stable key names — this is the
    /// machine-readable surface scripts consume).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("accepted", Value::Num(self.accepted as f64)),
            ("rejected", Value::Num(self.rejected as f64)),
            ("throttled", Value::Num(self.throttled as f64)),
            ("completed", Value::Num(self.completed as f64)),
            ("deadline_missed", Value::Num(self.deadline_missed as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("cold_deferred", Value::Num(self.cold_deferred as f64)),
            ("batches", Value::Num(self.batches as f64)),
            ("dispatched", Value::Num(self.dispatched as f64)),
            ("batched_requests", Value::Num(self.batched_requests as f64)),
            (
                "dispatcher_restarts",
                Value::Num(self.dispatcher_restarts as f64),
            ),
            ("wire_rejections", Value::Num(self.wire_rejections as f64)),
            ("queue_high_water", Value::Num(self.queue_high_water as f64)),
            ("mean_batch_size", Value::Num(self.mean_batch_size())),
            (
                "latency_ms",
                Value::obj(vec![
                    ("count", Value::Num(self.latency_ms.count as f64)),
                    ("mean", Value::Num(self.latency_ms.mean)),
                    ("p50", Value::Num(self.latency_ms.p50)),
                    ("p95", Value::Num(self.latency_ms.p95)),
                    ("p99", Value::Num(self.latency_ms.p99)),
                    ("max", Value::Num(self.latency_ms.max)),
                ]),
            ),
            (
                "planner",
                Value::obj(vec![
                    ("hits", Value::Num(self.planner.hits as f64)),
                    ("misses", Value::Num(self.planner.misses as f64)),
                    ("built", Value::Num(self.planner.built as f64)),
                    ("hit_rate", Value::Num(self.planner.hit_rate())),
                    ("cached_plans", Value::Num(self.planner.cached_plans as f64)),
                    (
                        "resident_bytes",
                        Value::Num(self.planner.resident_bytes as f64),
                    ),
                    (
                        "wisdom_rejections",
                        Value::Num(self.planner.wisdom_rejections as f64),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_through_snapshot() {
        let m = Metrics::new(16);
        m.on_accept(3);
        m.on_accept(7);
        m.on_accept(5);
        m.rejected.fetch_add(2, Ordering::Relaxed);
        m.on_complete(1_000_000);
        m.on_complete(3_000_000);
        m.on_batch(1);
        m.on_batch(4);
        m.on_failed();
        m.on_deadline_missed();
        m.cold_deferred.fetch_add(2, Ordering::Relaxed);
        m.dispatcher_restarts.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot(PlannerStats::default());
        assert_eq!(s.accepted, 3);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.throttled, 0);
        assert_eq!(s.cold_deferred, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.failed, 1);
        assert_eq!(s.deadline_missed, 1);
        assert_eq!(s.dispatcher_restarts, 1);
        assert_eq!(s.queue_high_water, 7);
        assert_eq!(s.batches, 2);
        assert_eq!(s.dispatched, 5);
        assert_eq!(s.batched_requests, 4);
        assert_eq!(s.latency_ms.count, 2);
        assert!((s.latency_ms.mean - 2.0).abs() < 1e-9);
        assert_eq!(s.settled(), 4, "completed + deadline_missed + failed");
        // 5 requests went through 2 dispatches: mean uses what was actually
        // dispatched, not everything that settled.
        assert!((s.mean_batch_size() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn latency_reservoir_is_bounded() {
        let m = Metrics::new(4);
        for i in 0..100 {
            m.on_complete(i);
        }
        assert_eq!(m.latencies_ns.lock().samples.len(), 4);
        let s = m.snapshot(PlannerStats::default());
        assert_eq!(s.completed, 100);
        assert_eq!(s.latency_ms.count, 4);
    }

    #[test]
    fn reservoir_admits_late_samples() {
        // The old cap-and-stop reservoir kept only the first `cap` samples,
        // so steady-state percentiles were forever the warmup's. Algorithm R
        // keeps a uniform sample: with 10_000 offers into 16 slots, the
        // retained set cannot still be the first 16 values (deterministic —
        // the RNG is seeded).
        let m = Metrics::new(16);
        for i in 0..10_000u64 {
            m.on_complete(i);
        }
        let samples = m.latencies_ns.lock().samples.clone();
        assert_eq!(samples.len(), 16);
        assert!(
            samples.iter().any(|&s| s >= 16),
            "reservoir still holds only warmup samples: {samples:?}"
        );
        // And it stays a sample of the *whole* run, not just the tail.
        assert!(samples.iter().any(|&s| s < 9_000));
    }

    #[test]
    fn zero_capacity_reservoir_counts_without_sampling() {
        let m = Metrics::new(0);
        for i in 0..10 {
            m.on_complete(i);
        }
        let s = m.snapshot(PlannerStats::default());
        assert_eq!(s.completed, 10);
        assert_eq!(s.latency_ms.count, 0);
    }

    /// The torn-snapshot bug: `snapshot` used to load `accepted` before the
    /// settlement counters, so a snapshot racing a settle could observe the
    /// settlement but not the admission that preceded it —
    /// `settled() > accepted`, a transient violation of the accounting
    /// identity that no quiescent check could catch. With settlement
    /// counters loaded first (Acquire, against Release increments), every
    /// snapshot satisfies `settled() <= accepted`. Hammer it: one thread
    /// does accept→settle pairs as fast as it can, the observer snapshots
    /// continuously and asserts the invariant on every single one.
    #[test]
    fn snapshot_is_never_torn_under_hammering() {
        let m = std::sync::Arc::new(Metrics::new(0));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let m = std::sync::Arc::clone(&m);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        m.on_accept(1);
                        match (w + i) % 3 {
                            0 => m.on_complete(10),
                            1 => m.on_deadline_missed(),
                            _ => m.on_failed(),
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        let mut snapshots = 0u64;
        while std::time::Instant::now() < deadline {
            let s = m.snapshot(PlannerStats::default());
            assert!(
                s.settled() <= s.accepted,
                "torn snapshot: settled {} > accepted {}",
                s.settled(),
                s.accepted
            );
            snapshots += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer panicked");
        }
        assert!(snapshots > 100, "observer must actually have hammered");
        // Quiescent: the identity is exact.
        let s = m.snapshot(PlannerStats::default());
        assert_eq!(s.settled(), s.accepted);
    }

    #[test]
    fn json_has_the_stable_keys() {
        let s = ServeStats::default();
        let v = s.to_json();
        for key in [
            "accepted",
            "rejected",
            "throttled",
            "cold_deferred",
            "completed",
            "deadline_missed",
            "failed",
            "batches",
            "dispatched",
            "dispatcher_restarts",
            "wire_rejections",
            "queue_high_water",
            "latency_ms",
            "planner",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert!(v.get("latency_ms").unwrap().get("p99").is_some());
        assert!(v.get("planner").unwrap().get("hit_rate").is_some());
        // And it parses back.
        let text = v.to_string_pretty();
        fgsupport::json::parse(&text).expect("snapshot JSON must parse");
    }
}
