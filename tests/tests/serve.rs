//! Cross-crate serving-layer tests: the plan cache's single-flight
//! guarantee under thread hammering, admission-control backpressure,
//! end-to-end correctness of batched service execution, and the
//! panic-safety guarantees — injected panics, dispatcher supervision,
//! and the post-drain accounting identity
//! `accepted == completed + deadline_missed + failed`.

use fgfft::exec::Version;
use fgfft::planner::{Plan, PlanKey, Planner};
use fgfft::{rms_error, Complex64, TwiddleLayout};
use fgserve::{FaultInjector, FftService, Request, ServeConfig, ServeError, ServeStats, Ticket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Every shutdown, however many faults were injected, must satisfy the
/// accounting identity: nothing admitted is ever lost or double-counted.
fn assert_drained(stats: &ServeStats) {
    assert_eq!(
        stats.accepted,
        stats.completed + stats.deadline_missed + stats.failed,
        "accounting identity violated: {stats:?}"
    );
}

/// Redeem a ticket with a hang guard: a wedged service fails the test
/// instead of hanging it.
fn wait_bounded(ticket: Ticket) -> Result<fgserve::Response, ServeError> {
    ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("ticket not completed within 60 s — the no-hang guarantee is broken")
}

fn signal(n: usize, phase: f64) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.11 + phase).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

/// ≥ 8 threads hammer the planner on a handful of distinct keys through a
/// start barrier (maximum miss contention): every distinct key must be
/// built exactly once (single-flight), every thread must get the same
/// `Arc`, and execution through the cached plan must be bit-identical to an
/// uncached `Plan::build`.
#[test]
fn planner_single_flight_under_hammering() {
    const THREADS: usize = 12;
    let keys: Vec<PlanKey> = vec![
        PlanKey::new(1 << 10, Version::FineGuided, TwiddleLayout::Linear),
        PlanKey::new(1 << 11, Version::FineGuided, TwiddleLayout::Linear),
        PlanKey::new(1 << 12, Version::Coarse, TwiddleLayout::Linear),
        PlanKey::new(1 << 12, Version::CoarseHash, TwiddleLayout::BitReversedHash),
    ];
    let planner = Arc::new(Planner::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let planner = Arc::clone(&planner);
            let barrier = Arc::clone(&barrier);
            let keys = keys.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // Every thread requests every key, repeatedly, starting at a
                // different offset so all keys see simultaneous first misses.
                let mut got = Vec::new();
                for round in 0..20 {
                    let key = keys[(t + round) % keys.len()];
                    got.push((key, planner.plan_key(key)));
                }
                got
            })
        })
        .collect();
    let mut by_key: Vec<(PlanKey, Vec<Arc<Plan>>)> =
        keys.iter().map(|&k| (k, Vec::new())).collect();
    for h in handles {
        for (key, plan) in h.join().expect("no panics") {
            by_key
                .iter_mut()
                .find(|(k, _)| *k == key)
                .expect("known key")
                .1
                .push(plan);
        }
    }
    // Exactly one construction per distinct key, shared by everyone.
    let stats = planner.stats();
    assert_eq!(stats.built, keys.len() as u64, "single-flight violated");
    assert_eq!(stats.cached_plans, keys.len() as u64);
    assert_eq!(stats.hits + stats.misses, (THREADS * 20) as u64);
    for (key, plans) in &by_key {
        for plan in plans {
            assert!(
                Arc::ptr_eq(plan, &plans[0]),
                "{key:?}: threads saw different plan instances"
            );
        }
    }
    // Cached execution is bit-identical to an uncached build.
    let rt = codelet::runtime::Runtime::with_workers(4);
    for (key, plans) in &by_key {
        let input = signal(key.n(), 0.4);
        let mut cached = input.clone();
        plans[0].execute(&mut cached, &rt);
        let mut fresh = input;
        Plan::build(*key).execute(&mut fresh, &rt);
        assert_eq!(cached, fresh, "{key:?}: cached path diverged");
    }
}

/// Same-key hammering from many threads with *no* pre-population: however
/// the misses interleave, only one thread may construct.
#[test]
fn planner_builds_once_for_one_hot_key() {
    const THREADS: usize = 16;
    let planner = Arc::new(Planner::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let planner = Arc::clone(&planner);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                planner.plan(1 << 12, Version::FineGuided, TwiddleLayout::Linear)
            })
        })
        .collect();
    let plans: Vec<Arc<Plan>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(planner.stats().built, 1, "exactly one construction");
    assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
}

/// A saturated service must reject with `Overloaded` instead of blocking,
/// and `serve_stats` must account for every observed rejection.
#[test]
fn saturated_service_rejects_with_overloaded() {
    // One dispatcher on a tiny queue; the first job is slow enough
    // (large transform) that submissions outrun the drain.
    let service = FftService::start(ServeConfig {
        queue_capacity: 4,
        max_batch: 1,
        workers: 1,
        dispatchers: 1,
        ..ServeConfig::default()
    });
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut observed_rejections = 0u64;
    let start = Instant::now();
    // Push until we have seen a healthy number of rejections (bounded by
    // time so a pathologically fast drain cannot hang the test).
    while observed_rejections < 8 && start.elapsed() < Duration::from_secs(20) {
        match service.submit(Request::new(signal(1 << 14, 0.0))) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { queue_capacity, .. }) => {
                assert_eq!(queue_capacity, 4);
                observed_rejections += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        observed_rejections >= 8,
        "queue of 4 with a slow consumer must overflow"
    );
    let accepted = tickets.len() as u64;
    for t in tickets {
        t.wait().expect("accepted requests complete");
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.rejected, observed_rejections,
        "stats must match client-observed rejections"
    );
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.completed, accepted);
    assert!(
        stats.queue_high_water <= 4,
        "high-water cannot exceed bound"
    );
}

/// Concurrent clients through the service: every response is bit-identical
/// to the engine path, and batching actually happened.
#[test]
fn concurrent_clients_get_exact_results() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    const DISPATCHERS: usize = 2;
    let n = 1 << 11;
    let service = Arc::new(FftService::start(ServeConfig {
        queue_capacity: 128,
        max_batch: 8,
        workers: 2,
        dispatchers: DISPATCHERS,
        ..ServeConfig::default()
    }));
    // Reference results computed through the uncached path.
    let rt = codelet::runtime::Runtime::with_workers(2);
    let reference: Vec<Vec<Complex64>> = (0..CLIENTS * PER_CLIENT)
        .map(|i| {
            let mut d = signal(n, i as f64);
            Plan::build(PlanKey::new(n, Version::FineGuided, TwiddleLayout::Linear))
                .execute(&mut d, &rt);
            d
        })
        .collect();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let mismatches = Arc::clone(&mismatches);
            let reference: Vec<Vec<Complex64>> = (0..PER_CLIENT)
                .map(|r| reference[c * PER_CLIENT + r].clone())
                .collect();
            std::thread::spawn(move || {
                barrier.wait();
                for (r, expect) in reference.iter().enumerate() {
                    let i = c * PER_CLIENT + r;
                    let response = service
                        .submit(Request::new(signal(n, i as f64)))
                        .expect("queue sized for the offered load")
                        .wait()
                        .expect("transform succeeds");
                    if response.buffer != *expect {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client panicked");
    }
    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "served ≠ uncached");
    let service = Arc::into_inner(service).expect("all clients done");
    let stats = service.shutdown();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.planner.built, 1, "one size ⇒ one plan");
    // Single flight: a dispatcher that misses blocks on the one in-flight
    // build and hits from then on, so each dispatcher misses at most once
    // however the clients' requests happen to batch.
    assert!(
        stats.planner.misses <= DISPATCHERS as u64,
        "at most one miss per dispatcher (got {} misses)",
        stats.planner.misses
    );
}

/// The service path and the one-shot `fgfft::forward` agree numerically.
#[test]
fn service_matches_reference_fft() {
    let n = 1 << 9;
    let input = signal(n, 1.7);
    let expect = fgfft::reference::recursive_fft(&input);
    let service = FftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let response = service
        .submit(Request::new(input))
        .expect("admitted")
        .wait()
        .expect("completed");
    assert!(rms_error(&response.buffer, &expect) < 1e-9);
    service.shutdown();
}

/// The acceptance scenario for panic-safe serving: one dispatcher, an
/// injected panic in the first dispatch. Every previously-submitted ticket
/// must complete (no `wait` hang), `failed` must be positive, the service
/// must still serve a correct transform afterwards, and after drain the
/// accounting identity must hold.
#[test]
fn injected_panic_never_hangs_tickets_and_service_recovers() {
    let n = 1 << 9;
    let fault = FaultInjector::panic_on_batch(1);
    let service = FftService::start(ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        workers: 2,
        dispatchers: 1,
        fault: fault.clone(),
        ..ServeConfig::default()
    });
    // A burst submitted up front: some land in the poisoned first batch,
    // the rest are served by the surviving dispatcher.
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| {
            service
                .submit(Request::new(signal(n, i as f64)))
                .expect("admitted")
        })
        .collect();
    let mut failures = 0u64;
    for t in tickets {
        match wait_bounded(t) {
            Ok(response) => assert_eq!(response.buffer.len(), n),
            Err(ServeError::Internal { reason }) => {
                assert!(reason.contains("injected fault"), "reason: {reason}");
                failures += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(failures > 0, "the injected panic must have failed someone");
    assert_eq!(fault.fired(), 1);

    // Continued correct service after the panic.
    let input = signal(n, 99.0);
    let expect = fgfft::reference::recursive_fft(&input);
    let response = wait_bounded(service.submit(Request::new(input)).expect("admitted"))
        .expect("service recovered");
    assert!(rms_error(&response.buffer, &expect) < 1e-9);

    let stats = service.shutdown();
    assert_eq!(stats.failed, failures);
    assert!(stats.failed > 0);
    assert_eq!(
        stats.dispatcher_restarts, 0,
        "guarded panic keeps the thread"
    );
    assert_drained(&stats);
}

/// A size-targeted fault fails only that size's groups; other sizes served
/// by the same dispatchers are untouched.
#[test]
fn panic_on_one_size_spares_other_sizes() {
    let poisoned_n = 1 << 8;
    let healthy_n = 1 << 10;
    let fault = FaultInjector::panic_on_size(poisoned_n, u64::MAX);
    let service = FftService::start(ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        workers: 2,
        dispatchers: 1,
        fault,
        ..ServeConfig::default()
    });
    let tickets: Vec<(usize, Ticket)> = (0..10)
        .map(|i| {
            let n = if i % 2 == 0 { poisoned_n } else { healthy_n };
            (
                n,
                service
                    .submit(Request::new(signal(n, i as f64)))
                    .expect("admitted"),
            )
        })
        .collect();
    for (n, t) in tickets {
        let outcome = wait_bounded(t);
        if n == poisoned_n {
            assert!(
                matches!(outcome, Err(ServeError::Internal { .. })),
                "poisoned size must fail, got {outcome:?}"
            );
        } else {
            assert_eq!(outcome.expect("healthy size serves").buffer.len(), n);
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.failed, 5);
    assert_eq!(stats.completed, 5);
    assert_drained(&stats);
}

/// Defense in depth: a panic *outside* the dispatch guard kills the
/// dispatcher thread. The jobs it held must still complete (drop-guard),
/// the supervisor must respawn the thread within its budget, and service
/// must continue.
#[test]
fn killed_dispatcher_is_respawned_by_supervisor() {
    let n = 1 << 9;
    let fault = FaultInjector::kill_dispatcher_on_batch(1);
    let service = FftService::start(ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        workers: 2,
        dispatchers: 1,
        max_dispatcher_restarts: 2,
        fault: fault.clone(),
        ..ServeConfig::default()
    });
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| {
            service
                .submit(Request::new(signal(n, i as f64)))
                .expect("admitted")
        })
        .collect();
    let mut abandoned = 0u64;
    for t in tickets {
        match wait_bounded(t) {
            Ok(_) => {}
            Err(ServeError::Internal { .. }) => abandoned += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(fault.fired() >= 1, "the kill fault must have tripped");
    assert!(
        abandoned >= 1,
        "the killed dispatcher held at least one job; its drop-guard must fail it"
    );
    // The respawned dispatcher keeps serving.
    let input = signal(n, 7.5);
    let expect = fgfft::reference::recursive_fft(&input);
    let response = wait_bounded(service.submit(Request::new(input)).expect("admitted"))
        .expect("respawned dispatcher serves");
    assert!(rms_error(&response.buffer, &expect) < 1e-9);
    let stats = service.shutdown();
    assert!(
        stats.dispatcher_restarts >= 1,
        "supervisor must record the respawn: {stats:?}"
    );
    assert_eq!(stats.failed, abandoned);
    assert_drained(&stats);
}

/// Repeated injected panics (N faults over the run): the service keeps
/// recovering, every ticket settles, and the identity holds at drain.
#[test]
fn service_survives_repeated_injected_panics() {
    const FAULTS: u64 = 5;
    let n = 1 << 8;
    for workers in [1, 2, 4] {
        let fault = FaultInjector::panic_on_size(n, FAULTS);
        let service = FftService::start(ServeConfig {
            queue_capacity: 32,
            max_batch: 1, // one request per dispatch: each fault hits one ticket
            workers,
            dispatchers: 1,
            fault: fault.clone(),
            ..ServeConfig::default()
        });
        let mut failed = 0u64;
        let mut completed = 0u64;
        for i in 0..(FAULTS + 3) {
            let outcome = wait_bounded(
                service
                    .submit(Request::new(signal(n, i as f64)))
                    .expect("admitted"),
            );
            match outcome {
                Ok(_) => completed += 1,
                Err(ServeError::Internal { .. }) => failed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(fault.fired(), FAULTS, "every configured fault fired");
        assert_eq!(failed, FAULTS);
        assert_eq!(completed, 3, "requests after the budget are served");
        let stats = service.shutdown();
        assert_eq!(stats.failed, FAULTS);
        assert_drained(&stats);
    }
}

/// Multi-dispatcher smoke under adversity: several dispatchers, concurrent
/// clients, mixed sizes, expired deadlines, and injected size-targeted
/// panics all at once. Every ticket settles, successful responses are
/// numerically correct, and the drain identity holds.
#[test]
fn multi_dispatcher_mixed_load_with_faults_and_deadlines() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 8;
    let poisoned_n = 1 << 8;
    let sizes = [1 << 8, 1 << 9, 1 << 10];
    let fault = FaultInjector::panic_on_size(poisoned_n, 3);
    let service = Arc::new(FftService::start(ServeConfig {
        queue_capacity: 256,
        max_batch: 4,
        workers: 2,
        dispatchers: 3,
        fault,
        ..ServeConfig::default()
    }));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut outcomes = Vec::new();
                for r in 0..PER_CLIENT {
                    let i = c * PER_CLIENT + r;
                    let n = sizes[i % sizes.len()];
                    let input = signal(n, i as f64);
                    let expect = fgfft::reference::recursive_fft(&input);
                    let mut request = Request::new(input);
                    // Every 4th request carries an already-expired deadline.
                    if i % 4 == 3 {
                        request = request.with_deadline(Instant::now() - Duration::from_secs(1));
                    }
                    let ticket = service.submit(request).expect("queue sized for the load");
                    let outcome = ticket
                        .wait_timeout(Duration::from_secs(60))
                        .expect("no ticket may hang");
                    if let Ok(response) = &outcome {
                        assert!(
                            rms_error(&response.buffer, &expect) < 1e-9,
                            "client {c} request {r}: wrong result"
                        );
                    }
                    outcomes.push(outcome);
                }
                outcomes
            })
        })
        .collect();
    let mut completed = 0u64;
    let mut missed = 0u64;
    let mut failed = 0u64;
    for h in handles {
        for outcome in h.join().expect("client panicked") {
            match outcome {
                Ok(_) => completed += 1,
                Err(ServeError::DeadlineExceeded) => missed += 1,
                Err(ServeError::Internal { .. }) => failed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    let service = Arc::into_inner(service).expect("all clients done");
    let stats = service.shutdown();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.deadline_missed, missed);
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.accepted, (CLIENTS * PER_CLIENT) as u64);
    assert!(failed > 0, "the size fault must have hit someone");
    assert!(missed > 0, "expired deadlines must have been dropped");
    assert_drained(&stats);
}

/// Shutdown with several dispatchers racing a full queue: every admitted
/// ticket settles and the drain identity holds.
#[test]
fn multi_dispatcher_shutdown_drains_under_load() {
    let service = FftService::start(ServeConfig {
        queue_capacity: 128,
        max_batch: 8,
        workers: 2,
        dispatchers: 3,
        ..ServeConfig::default()
    });
    let tickets: Vec<Ticket> = (0..60)
        .map(|i| {
            let n = if i % 2 == 0 { 1 << 8 } else { 1 << 9 };
            service
                .submit(Request::new(signal(n, i as f64)))
                .expect("admitted")
        })
        .collect();
    // Shut down immediately: dispatchers must drain everything first.
    let stats = service.shutdown();
    for t in tickets {
        wait_bounded(t).expect("drained requests complete successfully");
    }
    assert_eq!(stats.completed, 60);
    assert_eq!(stats.failed, 0);
    assert_drained(&stats);
}

/// Stats JSON export round-trips through the workspace JSON parser with the
/// documented keys present.
#[test]
fn serve_stats_json_is_parseable() {
    let service = FftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for _ in 0..3 {
        service
            .submit(Request::new(signal(1 << 8, 0.0)))
            .expect("admitted")
            .wait()
            .expect("completed");
    }
    let stats = service.shutdown();
    let json = stats.to_json().to_string_pretty();
    let parsed = fgsupport::json::parse(&json).expect("valid JSON");
    assert_eq!(parsed.get("completed").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(
        parsed.get("dispatcher_restarts").and_then(|v| v.as_u64()),
        Some(0)
    );
    assert!(parsed
        .get("planner")
        .and_then(|p| p.get("hit_rate"))
        .is_some());
}

/// A service started with `wisdom_path` serves bit-exact results vs an
/// untuned service: wisdom reorders execution of the same codelet DAG and
/// the DAG fixes the arithmetic. Also covers the tolerant-startup paths —
/// a missing or corrupt wisdom file must not stop the service.
#[test]
fn wisdom_tuned_service_is_bit_exact_vs_untuned() {
    let n = 1 << 10;
    let dir = std::env::temp_dir().join(format!("fgserve-wisdom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("wisdom.json");

    // Wisdom tuning the exact key the service will use.
    let version = Version::FineGuided;
    let key = PlanKey::new(n, version, version.layout());
    let tuning = fgfft::ScheduleTuning {
        pool_order: Some((0..(n >> 6)).rev().collect()),
        last_early: None,
        transpose_block_log2: None,
    };
    // On-disk wisdom must be certified to load.
    let cert = fgfft::cert::Certificate::for_plan(&fgfft::Plan::build_tuned(key, Some(&tuning)))
        .expect("tuning is valid");
    let mut wisdom = fgfft::wisdom::Wisdom::new();
    wisdom.insert(fgfft::wisdom::WisdomEntry {
        key,
        tuning,
        backend: Default::default(),
        median_ns: 1,
        seed_median_ns: 2,
        cert: Some(cert),
    });
    wisdom.save(&path).expect("save wisdom");

    let inputs: Vec<Vec<Complex64>> = (0..6).map(|i| signal(n, i as f64 * 0.3)).collect();
    let serve_all = |config: ServeConfig| -> Vec<Vec<Complex64>> {
        let service = FftService::start(config);
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|input| {
                service
                    .submit(Request::new(input.clone()))
                    .expect("admitted")
            })
            .collect();
        let out = tickets
            .into_iter()
            .map(|t| wait_bounded(t).expect("completed").buffer.into_vec())
            .collect();
        assert_drained(&service.shutdown());
        out
    };

    let untuned = serve_all(ServeConfig {
        version,
        workers: 2,
        ..ServeConfig::default()
    });
    let tuned_service = FftService::start(ServeConfig {
        version,
        workers: 2,
        wisdom_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    assert!(
        matches!(
            tuned_service.wisdom_status(),
            Some(fgfft::wisdom::WisdomStatus::Loaded { entries: 1 })
        ),
        "{:?}",
        tuned_service.wisdom_status()
    );
    let tuned: Vec<Vec<Complex64>> = {
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|input| {
                tuned_service
                    .submit(Request::new(input.clone()))
                    .expect("admitted")
            })
            .collect();
        let out = tickets
            .into_iter()
            .map(|t| wait_bounded(t).expect("completed").buffer.into_vec())
            .collect();
        assert_drained(&tuned_service.shutdown());
        out
    };
    assert_eq!(tuned, untuned, "wisdom changed results");

    // Tolerant startup: missing and corrupt wisdom files serve fine.
    let missing = serve_with_status(dir.join("does-not-exist.json"), version, &inputs[0]);
    assert!(matches!(
        missing,
        Some(fgfft::wisdom::WisdomStatus::Missing)
    ));
    let corrupt_path = dir.join("corrupt.json");
    std::fs::write(&corrupt_path, "{ torn").expect("write corrupt file");
    let corrupt = serve_with_status(corrupt_path, version, &inputs[0]);
    assert!(matches!(
        corrupt,
        Some(fgfft::wisdom::WisdomStatus::Corrupt)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Start a service with `wisdom_path`, serve one request, return the
/// wisdom status.
fn serve_with_status(
    path: std::path::PathBuf,
    version: Version,
    input: &[Complex64],
) -> Option<fgfft::wisdom::WisdomStatus> {
    let service = FftService::start(ServeConfig {
        version,
        workers: 2,
        wisdom_path: Some(path),
        ..ServeConfig::default()
    });
    let status = service.wisdom_status();
    let ticket = service
        .submit(Request::new(input.to_vec()))
        .expect("admitted");
    wait_bounded(ticket).expect("completed");
    assert_drained(&service.shutdown());
    status
}
