//! Cross-crate cluster tests: bit-exactness of sharded serving against the
//! HostScalar backend, tenant isolation under a flooding neighbor,
//! dispatcher-kill fault injection with intact cluster-wide accounting,
//! and the buffer pool's leak guard across failure paths.

use codelet::runtime::Runtime;
use fgfft::exec::Version;
use fgfft::planner::{Plan, PlanKey};
use fgfft::{BackendSel, Complex64};
use fgserve::{
    ClusterConfig, ClusterStats, FaultInjector, FftCluster, Lane, QosConfig, Request, ServeConfig,
    ServeError, TenantId, Ticket,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Complex64::new(
                (t * 0.419).sin() + 0.2 * (t * 0.031).cos(),
                (t * 0.157).cos(),
            )
        })
        .collect()
}

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Redeem with a hang guard: a wedged cluster fails, not hangs, the test.
fn wait_bounded(ticket: Ticket) -> Result<fgserve::Response, ServeError> {
    ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("ticket not completed within 60 s — the no-hang guarantee is broken")
}

fn assert_cluster_drained(stats: &ClusterStats) {
    assert_eq!(
        stats.accepted,
        stats.settled(),
        "cluster accounting identity violated: {stats:?}"
    );
    for (i, shard) in stats.per_shard.iter().enumerate() {
        assert_eq!(
            shard.accepted,
            shard.completed + shard.deadline_missed + shard.failed,
            "shard {i} accounting identity violated: {shard:?}"
        );
    }
}

fn small_base() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_batch: 4,
        workers: 2,
        dispatchers: 1,
        ..ServeConfig::default()
    }
}

/// Every response served through the cluster — whatever shard it routed
/// to, batched or deferred by the cold gate — must be bit-identical to the
/// same plan executed directly on the HostScalar backend.
#[test]
fn cluster_is_bit_exact_vs_host_scalar_reference() {
    let cluster = FftCluster::start(ClusterConfig {
        shards: 3,
        base: small_base(),
        ..ClusterConfig::default()
    });
    let runtime = Runtime::with_workers(2);
    let version = Version::FineGuided;
    for n_log2 in [6u32, 8, 10, 12] {
        let n = 1usize << n_log2;
        let input = signal(n);
        // Reference: the identical plan tables, driven by HostScalar.
        let plan = Arc::new(Plan::build(PlanKey::new(n, version, version.layout())));
        let prepared = BackendSel::SCALAR.build().prepare(&plan);
        let mut want = input.clone();
        prepared.execute_batch(&mut [want.as_mut_slice()], &runtime);
        let want = bits(&want);
        // Several concurrent submissions: exercises batching and, on the
        // first (cold) group, the slow-start deferral path.
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                cluster
                    .submit(Request::new(input.clone()))
                    .expect("admitted")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = wait_bounded(ticket).expect("completed");
            assert!(
                bits(&response.buffer) == want,
                "N=2^{n_log2} response {i}: bitwise drift vs HostScalar"
            );
        }
    }
    let stats = cluster.shutdown();
    assert_cluster_drained(&stats);
    assert_eq!(stats.completed, 16);
}

/// Tenant isolation: a tenant flooding at far beyond its allowance gets
/// throttled at the front door; a well-behaved tenant's deadline-carrying
/// interactive traffic keeps completing on time throughout the flood.
#[test]
fn flooding_tenant_cannot_break_victim_deadlines() {
    let flooder = TenantId(1);
    let victim = TenantId(2);
    let cluster = Arc::new(FftCluster::start(ClusterConfig {
        shards: 2,
        qos: Some(QosConfig {
            rate: 1_000.0,
            burst: 50.0,
            // The flooder is allowed 25 req/s with a burst of 4; it will
            // submit as fast as the loop spins.
            overrides: vec![(flooder, 25.0, 4.0)],
        }),
        base: small_base(),
        ..ClusterConfig::default()
    }));
    // Warm both plans so the measurement is steady-state serving, not
    // plan construction.
    for n in [1usize << 8, 1 << 12] {
        wait_bounded(cluster.submit(Request::new(signal(n))).expect("admitted"))
            .expect("warmup completes");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flood_handle = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut sent, mut throttled) = (0u64, 0u64);
            let payload = signal(1 << 12);
            while !stop.load(Ordering::Relaxed) {
                match cluster.submit(
                    Request::new(payload.clone())
                        .with_tenant(flooder)
                        .with_lane(Lane::Bulk),
                ) {
                    Ok(_ticket) => sent += 1, // ticket dropped; still served
                    Err(ServeError::Throttled { .. }) => throttled += 1,
                    Err(other) => panic!("unexpected flood error: {other:?}"),
                }
            }
            (sent, throttled)
        })
    };
    // The victim submits paced interactive traffic with real deadlines.
    let mut victim_outcomes = Vec::new();
    for _ in 0..40 {
        let req = Request::new(signal(1 << 8))
            .with_tenant(victim)
            .with_deadline(Instant::now() + Duration::from_millis(500));
        let ticket = cluster.submit(req).expect("victim must always be admitted");
        victim_outcomes.push(wait_bounded(ticket));
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let (flood_sent, flood_throttled) = flood_handle.join().expect("flooder panicked");
    let misses = victim_outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServeError::DeadlineExceeded)))
        .count();
    assert_eq!(
        misses, 0,
        "victim missed {misses}/40 deadlines behind a throttled flooder"
    );
    assert!(
        victim_outcomes.iter().all(|o| o.is_ok()),
        "every victim request must complete"
    );
    assert!(
        flood_throttled > flood_sent,
        "the flood must be mostly throttled (sent {flood_sent}, throttled {flood_throttled})"
    );
    let cluster = Arc::try_unwrap(cluster).expect("all clones joined");
    let stats = cluster.shutdown();
    assert_cluster_drained(&stats);
    assert_eq!(stats.throttled, flood_throttled);
    // Neither client saw `Overloaded` (either would have panicked above), so
    // the shards' summed queue rejections must be zero too: a throttled
    // submission is not also a rejection.
    assert_eq!(stats.rejected, 0, "client-observed Overloaded was 0");
}

/// Kill one shard's dispatcher mid-batch. The killed shard's in-flight
/// jobs fail through their drop-guards, the supervisor respawns the
/// thread, the other shard never notices — and the cluster-wide
/// accounting identity still holds exactly.
#[test]
fn dispatcher_kill_in_one_shard_keeps_cluster_accounting() {
    // Routing is deterministic in (shards, vnodes, version): probe a
    // throwaway cluster to learn which shard owns the poisoned size.
    let probe = FftCluster::start(ClusterConfig {
        shards: 2,
        base: small_base(),
        ..ClusterConfig::default()
    });
    let n_poisoned = 1usize << 9;
    let target = probe.shard_for(n_poisoned);
    // Find a size the *other* shard owns, to prove it stays healthy.
    let n_healthy = (2..16)
        .map(|log2| 1usize << log2)
        .find(|&n| probe.shard_for(n) != target)
        .expect("some size routes to the other shard");
    probe.shutdown();

    let fault = FaultInjector::kill_dispatcher_on_batch(1);
    let mut shard_faults = vec![FaultInjector::none(), FaultInjector::none()];
    shard_faults[target] = fault.clone();
    let cluster = FftCluster::start(ClusterConfig {
        shards: 2,
        shard_faults,
        base: small_base(),
        ..ClusterConfig::default()
    });
    // First batch on the target shard dies with its dispatcher.
    let poisoned: Vec<Ticket> = (0..3)
        .map(|_| {
            cluster
                .submit(Request::new(signal(n_poisoned)))
                .expect("admitted")
        })
        .collect();
    let mut failed = 0;
    for ticket in poisoned {
        match wait_bounded(ticket) {
            Err(ServeError::Internal { .. }) => failed += 1,
            Ok(_) => {} // raced ahead of the kill into a later batch
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(fault.fired(), 1, "the kill must actually have fired");
    assert!(
        failed >= 1,
        "the killed batch must fail at least one ticket"
    );
    // The untouched shard serves normally throughout...
    wait_bounded(
        cluster
            .submit(Request::new(signal(n_healthy)))
            .expect("admitted"),
    )
    .expect("healthy shard unaffected");
    // ...and the supervisor respawns the killed shard's dispatcher.
    wait_bounded(
        cluster
            .submit(Request::new(signal(n_poisoned)))
            .expect("admitted"),
    )
    .expect("killed shard recovered");
    let stats = cluster.shutdown();
    assert_cluster_drained(&stats);
    assert_eq!(stats.failed, failed as u64);
    assert_eq!(stats.per_shard[target].dispatcher_restarts, 1);
}

/// The pool leak guard holds across every exit path: completed pooled
/// responses, responses dropped unredeemed, and pooled jobs destroyed by
/// an injected panic all return their slabs.
#[test]
fn pool_leak_guard_survives_panics_and_dropped_tickets() {
    let n = 1usize << 10;
    let probe = FftCluster::start(ClusterConfig {
        shards: 2,
        base: small_base(),
        ..ClusterConfig::default()
    });
    let target = probe.shard_for(n);
    probe.shutdown();

    let mut shard_faults = vec![FaultInjector::none(), FaultInjector::none()];
    shard_faults[target] = FaultInjector::panic_on_size(n, 1);
    let cluster = FftCluster::start(ClusterConfig {
        shards: 2,
        shard_faults,
        base: small_base(),
        ..ClusterConfig::default()
    });
    // Round 1: the poisoned dispatch panics; the leased buffers die with
    // their jobs and must still return to the pool.
    let doomed: Vec<Ticket> = (0..2)
        .map(|_| {
            let mut lease = cluster.lease(n);
            lease.copy_from_slice(&signal(n));
            cluster.submit(Request::pooled(lease)).expect("admitted")
        })
        .collect();
    let mut internal = 0;
    for t in doomed {
        match wait_bounded(t) {
            Err(ServeError::Internal { .. }) => internal += 1,
            Ok(_) => {}
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(internal >= 1, "the injected panic must hit something");
    // Round 2: normal pooled round-trips, one response dropped unredeemed.
    for i in 0..4 {
        let mut lease = cluster.lease(n);
        lease.copy_from_slice(&signal(n));
        let ticket = cluster.submit(Request::pooled(lease)).expect("admitted");
        if i == 3 {
            drop(ticket); // never redeemed; the service still settles it
        } else {
            let response = wait_bounded(ticket).expect("completed");
            assert_eq!(response.buffer.len(), n);
        }
    }
    let stats = cluster.shutdown();
    assert_cluster_drained(&stats);
    assert_eq!(
        stats.pool.outstanding, 0,
        "leaked slabs after drain: {:?}",
        stats.pool
    );
    assert_eq!(stats.pool.leased, 6);
    assert!(stats.pool.reused >= 4, "slabs must actually recycle");
}
