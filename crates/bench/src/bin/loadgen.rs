//! Closed-loop load generator for the `fgserve` serving layer.
//!
//! Two phases over the same offered load (same transform size, same number
//! of closed-loop clients, same worker budget):
//!
//! * **cold** — every request plans from scratch: `Plan::build(key)
//!   .execute(..)` per request (twiddle derivation, bit-reversal table,
//!   schedule and table materialization, then the transform). This is what
//!   serving without a plan cache costs.
//! * **warm** — requests go through an [`FftService`]: wisdom-style plan
//!   cache (one build per size, then hits), same-size batching, bounded
//!   queue.
//!
//! The headline number is `warm_rps / cold_rps`; the JSON also embeds the
//! service's own stats snapshot so cache hit rate and rejection counts are
//! auditable.
//!
//! Usage: `loadgen [--smoke] [--json PATH] [n_log2=15] [clients=4]
//!                 [secs=2.0] [workers=N] [batch=8] [dispatchers=2]`
//!
//! `--smoke` runs a short self-checking pass (CI); the default full run
//! writes `results/serve_throughput.json`.
//!
//! **Cluster mode** (`loadgen --cluster [--smoke]`): open-loop,
//! multi-tenant load against an [`FftCluster`] — each tenant submits at a
//! paced offered rate (not closed-loop, so queueing delay shows up as
//! latency, not as reduced offered load) through the consistent-hash
//! front door, with pooled zero-copy payloads and per-tenant QoS active.
//! Sweeps shard counts × offered rates and emits the throughput-vs-p50/p99
//! curve (`results/cluster_latency.json`), including an owned-`Vec`
//! single-shard baseline so the pooled/sharded gain is measured against
//! the PR-2 serving path, not assumed.
//!
//! **Wire mode** (`loadgen --wire [--smoke]`): closed-loop warm-path
//! latency over the `fgwire` shared-memory protocol (real Unix socket,
//! SCM_RIGHTS segment handoff, eventfd doorbells, zero-copy slot leases)
//! vs the same cluster driven in-process, emitting
//! `results/wire_latency.json` with the `wire_p50 / inproc_p50` ratio
//! (target ≤ 1.5×).

use codelet::runtime::Runtime;
use fgfft::{Complex64, Plan, PlanKey, Version};
use fgserve::{
    ClusterConfig, ClusterStats, FftCluster, FftService, QosConfig, Request, ServeConfig,
    ServeError, ServeStats, TenantId, Ticket,
};
use fgsupport::bench::Percentiles;
use fgsupport::json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn signal(n: usize, phase: f64) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.19 + phase).sin(), (i as f64 * 0.03).cos()))
        .collect()
}

/// Closed-loop cold phase: each client repeatedly builds the plan and
/// transforms its buffer with it, once per request. Returns requests
/// completed.
fn run_cold(n_log2: u32, clients: usize, workers: usize, duration: Duration) -> u64 {
    let n = 1usize << n_log2;
    let done = Arc::new(AtomicBool::new(false));
    let count = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let done = Arc::clone(&done);
            let count = Arc::clone(&count);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let input = signal(n, c as f64);
                let version = Version::FineGuided;
                let key = PlanKey::new(n, version, version.layout());
                let runtime = Runtime::with_workers(workers);
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    let mut data = input.clone();
                    Plan::build(key).execute(&mut data, &runtime);
                    std::hint::black_box(&data);
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(duration);
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("cold client panicked");
    }
    count.load(Ordering::Relaxed)
}

/// Closed-loop warm phase through the service. Returns (requests completed
/// by the clients, rejections the clients observed, final service stats).
fn run_warm(
    n_log2: u32,
    clients: usize,
    config: ServeConfig,
    duration: Duration,
) -> (u64, u64, ServeStats) {
    let n = 1usize << n_log2;
    let service = Arc::new(FftService::start(config));
    let done = Arc::new(AtomicBool::new(false));
    let count = Arc::new(AtomicU64::new(0));
    let rejections = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            let count = Arc::clone(&count);
            let rejections = Arc::clone(&rejections);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let input = signal(n, c as f64);
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    match service.submit(Request::new(input.clone())) {
                        Ok(ticket) => {
                            ticket.wait().expect("admitted requests complete");
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            // Closed-loop clients should never overflow a
                            // queue sized ≥ the client count; record it.
                            rejections.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Err(other) => panic!("unexpected serve error: {other}"),
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(duration);
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("warm client panicked");
    }
    let service = Arc::into_inner(service).expect("all clients joined");
    let stats = service.shutdown();
    (
        count.load(Ordering::Relaxed),
        rejections.load(Ordering::Relaxed),
        stats,
    )
}

// ── wire mode ────────────────────────────────────────────────────────────

/// Closed-loop latency measurement through an in-process [`FftCluster`]
/// with pooled zero-copy payloads — the baseline the wire path is judged
/// against. Returns (client-observed ms latencies, final stats).
fn wire_baseline_inproc(
    n_log2: u32,
    clients: usize,
    config: ClusterConfig,
    duration: Duration,
) -> (Vec<f64>, ClusterStats) {
    let n = 1usize << n_log2;
    let cluster = Arc::new(FftCluster::start(config));
    cluster
        .submit(Request::new(signal(n, 0.0)))
        .expect("warmup admitted")
        .wait()
        .expect("warmup completes");
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let cluster = Arc::clone(&cluster);
            let done = Arc::clone(&done);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let input = signal(n, c as f64);
                let mut latencies_ms = Vec::new();
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let mut lease = cluster.lease(n);
                    lease.copy_from_slice(&input);
                    cluster
                        .submit(Request::pooled(lease))
                        .expect("closed loop fits the queue")
                        .wait()
                        .expect("baseline requests complete");
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(duration);
    done.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("baseline client panicked"));
    }
    let cluster = Arc::into_inner(cluster).expect("baseline clients joined");
    (all, cluster.shutdown())
}

/// Closed-loop latency measurement over the wire: each client thread owns
/// its own `fgwire` session (segment, doorbells, credits) against one
/// shared `WireServer`, and drives lease→submit→wait round trips.
fn wire_measured(
    n_log2: u32,
    clients: usize,
    cluster: ClusterConfig,
    duration: Duration,
) -> (Vec<f64>, ClusterStats) {
    use fgwire::client::{Client as WireClient, ClientConfig as WireClientConfig};
    use fgwire::proto::{SegmentConfig, SlotClass};
    use fgwire::server::{WireServer, WireServerConfig};
    use fgwire::session::SubmitOpts;

    let n = 1usize << n_log2;
    let socket = std::env::temp_dir().join(format!("fgwire-loadgen-{}.sock", std::process::id()));
    let server = WireServer::start(WireServerConfig {
        socket_path: socket.clone(),
        cluster,
        acceptors: 2,
        credits_per_session: 32,
        max_sessions: clients.max(1),
    })
    .expect("wire server starts");
    let classes = SegmentConfig {
        classes: vec![SlotClass {
            len_log2: n_log2,
            count: 8,
        }],
    };
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let socket = socket.clone();
            let classes = classes.clone();
            let done = Arc::clone(&done);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let client = WireClient::connect(WireClientConfig {
                    socket_path: socket,
                    classes,
                    tenant: None,
                })
                .expect("wire client connects");
                let input = signal(n, c as f64);
                // Warm the path (plan build, first doorbell) off the clock.
                let mut lease = client
                    .alloc(fgfft::workload::TransformKind::C2C, n)
                    .expect("warmup lease");
                lease.copy_from_slice(&input);
                client
                    .submit(lease, SubmitOpts::default())
                    .expect("warmup submit")
                    .wait()
                    .expect("warmup completes");
                let mut latencies_ms = Vec::new();
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let mut lease = client
                        .alloc(fgfft::workload::TransformKind::C2C, n)
                        .expect("closed loop never exhausts its slots");
                    lease.copy_from_slice(&input);
                    client
                        .submit(lease, SubmitOpts::default())
                        .expect("closed loop never exhausts its credits")
                        .wait()
                        .expect("wire requests complete");
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(duration);
    done.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("wire client panicked"));
    }
    (all, server.shutdown())
}

/// The `--wire` entry point: closed-loop warm-path latency over the
/// shared-memory wire protocol vs the same cluster driven in-process,
/// emitting `results/wire_latency.json`. The headline number is
/// `p50_ratio = wire_p50 / inproc_p50` (target ≤ 1.5×).
fn run_wire_mode(args: &[String], smoke: bool, json_path: &str) {
    let get = |key: &str, default: f64| -> f64 {
        args.iter()
            .filter_map(|a| a.strip_prefix(&format!("{key}=")))
            .next_back()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n_log2 = get("n_log2", if smoke { 10.0 } else { 12.0 }) as u32;
    let clients = (get("clients", 4.0) as usize).max(1);
    let secs = get("secs", if smoke { 0.3 } else { 1.5 });
    let workers = get("workers", 2.0) as usize;
    let batch = get("batch", 8.0) as usize;
    let duration = Duration::from_secs_f64(secs);
    let base = ServeConfig {
        queue_capacity: 256,
        max_batch: batch,
        workers,
        dispatchers: 1,
        version: Version::FineGuided,
        radix_log2: 6,
        latency_samples: 1 << 14,
        ..ServeConfig::default()
    };
    let cluster_config = || ClusterConfig {
        shards: 2,
        base: base.clone(),
        ..ClusterConfig::default()
    };
    eprintln!(
        "loadgen --wire: n=2^{n_log2}, {clients} closed-loop clients, {secs}s per phase{}",
        if smoke { " [smoke]" } else { "" }
    );

    let (mut inproc_lat, inproc_stats) =
        wire_baseline_inproc(n_log2, clients, cluster_config(), duration);
    let inproc = Percentiles::from_unsorted(&mut inproc_lat);
    eprintln!(
        "in-process: {} requests, p50 {:.3} ms, p99 {:.3} ms",
        inproc_lat.len(),
        inproc.p50,
        inproc.p99
    );
    let (mut wire_lat, wire_stats) = wire_measured(n_log2, clients, cluster_config(), duration);
    let wire = Percentiles::from_unsorted(&mut wire_lat);
    eprintln!(
        "wire      : {} requests, p50 {:.3} ms, p99 {:.3} ms",
        wire_lat.len(),
        wire.p50,
        wire.p99
    );
    let p50_ratio = wire.p50 / inproc.p50;

    println!("── wire vs in-process, N = 2^{n_log2} ──────────────────────");
    println!(
        "in-process p50 : {:>8.3} ms  ({} requests)",
        inproc.p50,
        inproc_lat.len()
    );
    println!(
        "wire p50       : {:>8.3} ms  ({} requests)",
        wire.p50,
        wire_lat.len()
    );
    println!("p50 ratio      : {p50_ratio:>8.2}×  (target ≤ 1.50×)");

    // Correctness gates: both phases must do work and balance their books.
    assert!(!inproc_lat.is_empty(), "in-process phase did no work");
    assert!(!wire_lat.is_empty(), "wire phase did no work");
    assert_eq!(
        inproc_stats.accepted,
        inproc_stats.settled(),
        "in-process accounting identity"
    );
    assert_eq!(
        wire_stats.accepted,
        wire_stats.settled(),
        "wire accounting identity"
    );
    assert_eq!(wire_stats.pool.outstanding, 0, "pool leaked slabs");
    assert_eq!(wire_stats.failed, 0, "wire requests must not fail");
    assert_eq!(
        wire_stats.wire_rejections, 0,
        "honest load saw wire rejections"
    );

    let phase_json = |p: &Percentiles, count: usize, stats: &ClusterStats| {
        Value::obj(vec![
            ("requests", Value::Num(count as f64)),
            ("p50_ms", Value::Num(p.p50)),
            ("p95_ms", Value::Num(p.p95)),
            ("p99_ms", Value::Num(p.p99)),
            ("mean_ms", Value::Num(p.mean)),
            ("max_ms", Value::Num(p.max)),
            ("cluster_stats", stats.to_json()),
        ])
    };
    let report = Value::obj(vec![
        ("id", Value::Str("wire_latency".into())),
        (
            "title",
            Value::Str("fgwire shared-memory wire vs in-process cluster latency".into()),
        ),
        ("smoke", Value::Bool(smoke)),
        ("n_log2", Value::Num(n_log2 as f64)),
        ("clients", Value::Num(clients as f64)),
        ("phase_secs", Value::Num(secs)),
        ("workers_per_shard", Value::Num(workers as f64)),
        ("max_batch", Value::Num(batch as f64)),
        (
            "inproc",
            phase_json(&inproc, inproc_lat.len(), &inproc_stats),
        ),
        ("wire", phase_json(&wire, wire_lat.len(), &wire_stats)),
        ("p50_ratio", Value::Num(p50_ratio)),
        ("p50_ratio_target", Value::Num(1.5)),
    ]);
    if let Some(dir) = std::path::Path::new(json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(json_path, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("json written to {json_path}");
    if p50_ratio > 1.5 {
        eprintln!("WARNING: wire p50 {p50_ratio:.2}× in-process, above the 1.5× target");
    }
}

// ── cluster mode ─────────────────────────────────────────────────────────

/// Settle one client-observed outcome into the latency/miss/fail tallies.
fn record_outcome(
    submitted: Instant,
    outcome: Result<fgserve::Response, ServeError>,
    latencies_ms: &mut Vec<f64>,
    missed: &mut u64,
    failed: &mut u64,
) {
    match outcome {
        Ok(_response) => latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3),
        Err(ServeError::DeadlineExceeded) => *missed += 1,
        Err(_) => *failed += 1,
    }
}

/// Non-blocking reap of completed tickets from the head of the pending
/// queue. Called every pacing tick (≤ ~200 µs apart), so client-observed
/// latency carries at most that much reap quantization.
fn reap(
    pending: &mut VecDeque<(Instant, Ticket)>,
    latencies_ms: &mut Vec<f64>,
    missed: &mut u64,
    failed: &mut u64,
) {
    while let Some((submitted, ticket)) = pending.pop_front() {
        match ticket.try_wait() {
            Ok(outcome) => record_outcome(submitted, outcome, latencies_ms, missed, failed),
            Err(ticket) => {
                pending.push_front((submitted, ticket));
                break;
            }
        }
    }
}

/// Closed-loop capacity probe through a one-shard pooled cluster: the
/// sustainable warm req/s the open-loop sweep scales its offered rates
/// from, so the curve is machine-independent.
fn cluster_capacity_probe(
    n_log2: u32,
    clients: usize,
    base: &ServeConfig,
    duration: Duration,
) -> f64 {
    let n = 1usize << n_log2;
    let cluster = Arc::new(FftCluster::start(ClusterConfig {
        shards: 1,
        base: base.clone(),
        ..ClusterConfig::default()
    }));
    cluster
        .submit(Request::new(signal(n, 0.0)))
        .expect("warmup admitted")
        .wait()
        .expect("warmup completes");
    let done = Arc::new(AtomicBool::new(false));
    let count = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let cluster = Arc::clone(&cluster);
            let done = Arc::clone(&done);
            let count = Arc::clone(&count);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let input = signal(n, c as f64);
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    let mut lease = cluster.lease(n);
                    lease.copy_from_slice(&input);
                    cluster
                        .submit(Request::pooled(lease))
                        .expect("closed loop fits the queue")
                        .wait()
                        .expect("probe requests complete");
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(duration);
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("probe client panicked");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cluster = Arc::into_inner(cluster).expect("probe clients joined");
    let stats = cluster.shutdown();
    assert_eq!(stats.accepted, stats.settled(), "probe accounting identity");
    count.load(Ordering::Relaxed) as f64 / elapsed
}

/// One measured point of the open-loop sweep.
struct PointOutcome {
    offered_rps: f64,
    achieved_rps: f64,
    latency: Percentiles,
    client_rejected: u64,
    client_throttled: u64,
    client_missed: u64,
    client_failed: u64,
    stats: ClusterStats,
}

/// Open-loop point: `tenants` paced threads offer `offered_rps` total
/// through the cluster front door (tenant-tagged, deadline-carrying,
/// pooled or owned payloads) for `duration`, then drain. Latency is
/// client-observed submit→redeem time.
#[allow(clippy::too_many_arguments)]
fn run_cluster_point(
    shards: usize,
    pooled: bool,
    n_log2: u32,
    tenants: usize,
    offered_rps: f64,
    duration: Duration,
    deadline: Duration,
    base: &ServeConfig,
) -> PointOutcome {
    let n = 1usize << n_log2;
    let per_tenant = offered_rps / tenants as f64;
    let cluster = Arc::new(FftCluster::start(ClusterConfig {
        shards,
        base: base.clone(),
        // QoS active but non-binding at the offered rate: a tenant that
        // honors its pacing is never throttled; a runaway one would be.
        qos: Some(QosConfig {
            rate: per_tenant * 4.0,
            burst: per_tenant.max(8.0),
            overrides: Vec::new(),
        }),
        ..ClusterConfig::default()
    }));
    cluster
        .submit(Request::new(signal(n, 0.0)))
        .expect("warmup admitted")
        .wait()
        .expect("warmup completes");
    let started = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let input = signal(n, t as f64);
                let period = Duration::from_secs_f64(1.0 / per_tenant);
                let start = Instant::now();
                let end = start + duration;
                let mut next = start;
                let mut pending: VecDeque<(Instant, Ticket)> = VecDeque::new();
                let mut latencies_ms = Vec::new();
                let (mut rejected, mut throttled, mut missed, mut failed) =
                    (0u64, 0u64, 0u64, 0u64);
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if now < next {
                        reap(&mut pending, &mut latencies_ms, &mut missed, &mut failed);
                        std::thread::sleep((next - now).min(Duration::from_micros(200)));
                        continue;
                    }
                    next += period;
                    let submitted = Instant::now();
                    let request = if pooled {
                        let mut lease = cluster.lease(n);
                        lease.copy_from_slice(&input);
                        Request::pooled(lease)
                    } else {
                        Request::new(input.clone())
                    }
                    .with_tenant(TenantId(t as u64))
                    .with_deadline(submitted + deadline);
                    match cluster.submit(request) {
                        Ok(ticket) => pending.push_back((submitted, ticket)),
                        Err(ServeError::Overloaded { .. }) => rejected += 1,
                        Err(ServeError::Throttled { .. }) => throttled += 1,
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                for (submitted, ticket) in pending {
                    match ticket.wait_timeout(Duration::from_secs(60)) {
                        Ok(outcome) => record_outcome(
                            submitted,
                            outcome,
                            &mut latencies_ms,
                            &mut missed,
                            &mut failed,
                        ),
                        Err(_stuck) => panic!("ticket not settled within 60 s during drain"),
                    }
                }
                (latencies_ms, rejected, throttled, missed, failed)
            })
        })
        .collect();
    let mut all_latencies = Vec::new();
    let (mut rejected, mut throttled, mut missed, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for h in handles {
        let (lat, r, t, m, f) = h.join().expect("tenant thread panicked");
        all_latencies.extend(lat);
        rejected += r;
        throttled += t;
        missed += m;
        failed += f;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cluster = Arc::into_inner(cluster).expect("tenant threads joined");
    let stats = cluster.shutdown();
    PointOutcome {
        offered_rps,
        achieved_rps: all_latencies.len() as f64 / elapsed,
        latency: Percentiles::from_unsorted(&mut all_latencies),
        client_rejected: rejected,
        client_throttled: throttled,
        client_missed: missed,
        client_failed: failed,
        stats,
    }
}

fn point_json(shards: usize, pooled: bool, point: &PointOutcome) -> Value {
    let per_shard_p50: Vec<Value> = point
        .stats
        .per_shard
        .iter()
        .map(|s| Value::Num(s.latency_ms.p50))
        .collect();
    let per_shard_completed: Vec<Value> = point
        .stats
        .per_shard
        .iter()
        .map(|s| Value::Num(s.completed as f64))
        .collect();
    Value::obj(vec![
        ("shards", Value::Num(shards as f64)),
        ("pooled", Value::Bool(pooled)),
        ("offered_rps", Value::Num(point.offered_rps)),
        ("achieved_rps", Value::Num(point.achieved_rps)),
        ("p50_ms", Value::Num(point.latency.p50)),
        ("p95_ms", Value::Num(point.latency.p95)),
        ("p99_ms", Value::Num(point.latency.p99)),
        ("mean_ms", Value::Num(point.latency.mean)),
        ("max_ms", Value::Num(point.latency.max)),
        ("completed", Value::Num(point.stats.completed as f64)),
        (
            "deadline_missed",
            Value::Num(point.stats.deadline_missed as f64),
        ),
        ("rejected", Value::Num(point.stats.rejected as f64)),
        ("throttled", Value::Num(point.stats.throttled as f64)),
        ("failed", Value::Num(point.stats.failed as f64)),
        ("per_shard_p50_ms", Value::Arr(per_shard_p50)),
        ("per_shard_completed", Value::Arr(per_shard_completed)),
        ("pool", point.stats.pool.to_json()),
    ])
}

/// The `--cluster` entry point: capacity-calibrated open-loop sweep over
/// shard counts × offered rates, plus an owned-payload single-shard
/// baseline, emitting the throughput-vs-latency curve as JSON.
fn run_cluster_mode(args: &[String], smoke: bool, json_path: &str) {
    let get = |key: &str, default: f64| -> f64 {
        args.iter()
            .filter_map(|a| a.strip_prefix(&format!("{key}=")))
            .next_back()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n_log2 = get("n_log2", if smoke { 10.0 } else { 13.0 }) as u32;
    let tenants = (get("tenants", 4.0) as usize).max(1);
    let secs = get("secs", if smoke { 0.3 } else { 1.5 });
    let deadline = Duration::from_secs_f64(get("deadline_ms", 100.0) / 1e3);
    let workers = get("workers", 2.0) as usize;
    let batch = get("batch", 8.0) as usize;
    let duration = Duration::from_secs_f64(secs);
    let base = ServeConfig {
        queue_capacity: 1024,
        max_batch: batch,
        workers,
        dispatchers: 1,
        version: Version::FineGuided,
        radix_log2: 6,
        latency_samples: 1 << 14,
        ..ServeConfig::default()
    };
    eprintln!(
        "loadgen --cluster: n=2^{n_log2}, {tenants} open-loop tenants, {secs}s per point, \
         deadline {:.0} ms{}",
        deadline.as_secs_f64() * 1e3,
        if smoke { " [smoke]" } else { "" }
    );

    // Calibration: closed-loop warm capacity (one shard, pooled) and the
    // cold plan-per-request floor, both at the same size.
    let probe_secs = Duration::from_secs_f64(if smoke { 0.15 } else { 0.5 });
    let capacity_rps = cluster_capacity_probe(n_log2, tenants, &base, probe_secs);
    let cold_rps = {
        let t0 = Instant::now();
        let requests = run_cold(n_log2, tenants, workers, probe_secs);
        requests as f64 / t0.elapsed().as_secs_f64()
    };
    eprintln!(
        "calibration: warm closed-loop {capacity_rps:.0} req/s, cold plan-per-request {cold_rps:.0} req/s"
    );

    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let fractions: &[f64] = if smoke { &[0.6] } else { &[0.3, 0.6, 0.9, 1.2] };
    let mut curve = Vec::new();
    let mut best_pooled_rps: f64 = 0.0;
    // Pooled sweep across shard counts, then the owned-payload baseline on
    // one shard at the same offered rates.
    let mut runs: Vec<(usize, bool)> = shard_counts.iter().map(|&s| (s, true)).collect();
    runs.push((1, false));
    for (shards, pooled) in runs {
        for &fraction in fractions {
            let offered = (capacity_rps * fraction).max(tenants as f64);
            let point = run_cluster_point(
                shards, pooled, n_log2, tenants, offered, duration, deadline, &base,
            );
            println!(
                "shards={shards} {} offered={:>8.1}/s achieved={:>8.1}/s \
                 p50={:>7.3}ms p99={:>7.3}ms miss={} rej={} thr={}",
                if pooled { "pooled" } else { "owned " },
                point.offered_rps,
                point.achieved_rps,
                point.latency.p50,
                point.latency.p99,
                point.client_missed,
                point.client_rejected,
                point.client_throttled,
            );
            // The run is meaningless if any of these fail; both modes assert.
            assert_eq!(
                point.stats.accepted,
                point.stats.settled(),
                "cluster accounting identity violated"
            );
            for (i, shard) in point.stats.per_shard.iter().enumerate() {
                assert_eq!(
                    shard.accepted,
                    shard.completed + shard.deadline_missed + shard.failed,
                    "shard {i} accounting identity violated"
                );
            }
            assert_eq!(point.stats.pool.outstanding, 0, "pool leaked slabs");
            assert_eq!(point.stats.rejected, point.client_rejected);
            assert_eq!(point.stats.throttled, point.client_throttled);
            assert!(point.stats.completed > 0, "point did no work");
            assert_eq!(point.client_failed, 0, "unexpected internal failures");
            if pooled {
                best_pooled_rps = best_pooled_rps.max(point.achieved_rps);
            }
            curve.push(point_json(shards, pooled, &point));
        }
    }

    let warm_over_cold = best_pooled_rps / cold_rps;
    println!("── cluster serving, N = 2^{n_log2} ─────────────────────────");
    println!("cold (plan per request)    : {cold_rps:>10.1} req/s");
    println!("best pooled cluster point  : {best_pooled_rps:>10.1} req/s");
    println!("aggregate warm over cold   : {warm_over_cold:>10.2}×");

    let report = Value::obj(vec![
        ("id", Value::Str("cluster_latency".into())),
        (
            "title",
            Value::Str("fgserve cluster open-loop throughput vs latency".into()),
        ),
        ("smoke", Value::Bool(smoke)),
        ("n_log2", Value::Num(n_log2 as f64)),
        ("tenants", Value::Num(tenants as f64)),
        ("point_secs", Value::Num(secs)),
        ("deadline_ms", Value::Num(deadline.as_secs_f64() * 1e3)),
        ("workers_per_shard", Value::Num(workers as f64)),
        ("max_batch", Value::Num(batch as f64)),
        ("capacity_probe_rps", Value::Num(capacity_rps)),
        ("cold_rps", Value::Num(cold_rps)),
        ("warm_over_cold", Value::Num(warm_over_cold)),
        ("curve", Value::Arr(curve)),
    ]);
    if let Some(dir) = std::path::Path::new(json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(json_path, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("json written to {json_path}");
    if !smoke && warm_over_cold < 2.0 {
        eprintln!("WARNING: cluster warm/cold ratio {warm_over_cold:.2} below the 2× target");
    }
}

fn main() {
    // Tiny hand-rolled CLI: flags plus key=value pairs.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cluster = args.iter().any(|a| a == "--cluster");
    let wire = args.iter().any(|a| a == "--wire");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            if wire {
                "results/wire_latency.json".to_string()
            } else if cluster {
                "results/cluster_latency.json".to_string()
            } else {
                "results/serve_throughput.json".to_string()
            }
        });
    if wire {
        run_wire_mode(&args, smoke, &json_path);
        return;
    }
    if cluster {
        run_cluster_mode(&args, smoke, &json_path);
        return;
    }
    let get = |key: &str, default: f64| -> f64 {
        args.iter()
            .filter_map(|a| a.strip_prefix(&format!("{key}=")))
            .next_back()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let host_workers = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(4);
    let n_log2 = get("n_log2", if smoke { 12.0 } else { 15.0 }) as u32;
    let clients = get("clients", 4.0) as usize;
    let secs = get("secs", if smoke { 0.25 } else { 2.0 });
    let workers = get("workers", (host_workers / 2).max(2) as f64) as usize;
    let batch = get("batch", 8.0) as usize;
    let dispatchers = get("dispatchers", 2.0) as usize;
    let duration = Duration::from_secs_f64(secs);

    eprintln!(
        "loadgen: n=2^{n_log2}, {clients} closed-loop clients, {secs}s per phase, \
         {workers} workers, batch≤{batch}, {dispatchers} dispatchers{}",
        if smoke { " [smoke]" } else { "" }
    );

    // Phase A: cold (plan-per-request).
    let t0 = Instant::now();
    let cold_requests = run_cold(n_log2, clients, workers, duration);
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_rps = cold_requests as f64 / cold_secs;
    eprintln!("cold : {cold_requests:>8} requests  {cold_rps:>10.1} req/s");

    // Phase B: warm (served, cached, batched). Queue sized so a closed loop
    // can never legitimately overflow it.
    let config = ServeConfig {
        queue_capacity: (2 * clients).max(32),
        max_batch: batch,
        workers,
        dispatchers,
        version: Version::FineGuided,
        radix_log2: 6,
        latency_samples: 1 << 16,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let (warm_requests, client_rejections, stats) = run_warm(n_log2, clients, config, duration);
    let warm_secs = t0.elapsed().as_secs_f64();
    let warm_rps = warm_requests as f64 / warm_secs;
    let ratio = warm_rps / cold_rps;
    eprintln!("warm : {warm_requests:>8} requests  {warm_rps:>10.1} req/s");

    println!("── serve throughput, N = 2^{n_log2} ────────────────────────");
    println!("cold (plan per request) : {cold_rps:>10.1} req/s");
    println!("warm (cached, batched)  : {warm_rps:>10.1} req/s");
    println!("speedup                 : {ratio:>10.2}×");
    println!(
        "cache hit rate          : {:>10.4}  (built {} plan{})",
        stats.planner.hit_rate(),
        stats.planner.built,
        if stats.planner.built == 1 { "" } else { "s" }
    );
    println!(
        "latency ms p50/p95/p99  : {:.3} / {:.3} / {:.3}",
        stats.latency_ms.p50, stats.latency_ms.p95, stats.latency_ms.p99
    );
    println!(
        "batches {} (mean size {:.2}), queue high-water {}, rejected {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.queue_high_water,
        stats.rejected
    );

    // Sanity: the run is meaningless if these fail, so fail loudly in both
    // modes (CI runs --smoke).
    assert!(cold_requests > 0, "cold phase did no work");
    assert!(warm_requests > 0, "warm phase did no work");
    assert_eq!(
        stats.completed, stats.accepted,
        "shutdown must drain every admitted request"
    );
    assert_eq!(
        stats.rejected, client_rejections,
        "service-counted rejections must match client-observed"
    );
    assert_eq!(
        stats.rejected, 0,
        "closed-loop load within queue capacity must see zero rejections"
    );
    assert!(
        stats.planner.built == 1,
        "one size must build exactly one plan (got {})",
        stats.planner.built
    );

    let report = Value::obj(vec![
        ("id", Value::Str("serve_throughput".into())),
        (
            "title",
            Value::Str("fgserve warm (cached+batched) vs cold (plan per request)".into()),
        ),
        ("smoke", Value::Bool(smoke)),
        ("n_log2", Value::Num(n_log2 as f64)),
        ("clients", Value::Num(clients as f64)),
        ("workers", Value::Num(workers as f64)),
        ("dispatchers", Value::Num(dispatchers as f64)),
        ("max_batch", Value::Num(batch as f64)),
        ("phase_secs", Value::Num(secs)),
        (
            "cold",
            Value::obj(vec![
                ("requests", Value::Num(cold_requests as f64)),
                ("rps", Value::Num(cold_rps)),
            ]),
        ),
        (
            "warm",
            Value::obj(vec![
                ("requests", Value::Num(warm_requests as f64)),
                ("rps", Value::Num(warm_rps)),
            ]),
        ),
        ("warm_over_cold", Value::Num(ratio)),
        ("serve_stats", stats.to_json()),
    ]);
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&json_path, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("json written to {json_path}");

    if !smoke && ratio < 2.0 {
        eprintln!("WARNING: warm/cold ratio {ratio:.2} below the 2× target");
    }
}
