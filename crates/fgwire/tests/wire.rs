//! End-to-end wire tests: a real `WireServer` on a Unix socket, real
//! `Client`s with SCM_RIGHTS fd passing, eventfd doorbells, and the
//! full listener/acceptor thread tree.
//!
//! The load-bearing assertions:
//! - results over the wire are **bit-identical** to the in-process
//!   service for every `TransformKind`, at batch sizes 1 and 4;
//! - garbage submit entries increment `wire_rejections` in the stats
//!   JSON and never disturb honest traffic;
//! - backpressure surfaces as `Overloaded` with a retry-after hint;
//! - sessions come and go without leaking cluster accounting.

use fgfft::workload::TransformKind;
use fgfft::Complex64;
use fgserve::shard::ClusterConfig;
use fgserve::{FftService, Payload, Request, ServeConfig, ServeError};
use fgwire::client::{Client, ClientConfig};
use fgwire::proto::{SegmentConfig, SlotClass};
use fgwire::ring::pack_submit;
use fgwire::server::{WireServer, WireServerConfig};
use fgwire::session::SubmitOpts;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgwire-{tag}-{}.sock", std::process::id()))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_batch: 4,
        workers: 2,
        dispatchers: 1,
        ..ServeConfig::default()
    }
}

fn server(tag: &str) -> (WireServer, PathBuf) {
    let path = sock(tag);
    let server = WireServer::start(WireServerConfig {
        socket_path: path.clone(),
        cluster: ClusterConfig {
            shards: 2,
            base: serve_config(),
            ..ClusterConfig::default()
        },
        acceptors: 2,
        credits_per_session: 32,
        max_sessions: 8,
    })
    .expect("wire server starts");
    (server, path)
}

fn signal(len: usize, phase: f64) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            Complex64::new(
                (i as f64 * 0.131 + phase).sin(),
                (i as f64 * 0.377 - phase).cos(),
            )
        })
        .collect()
}

fn bits(xs: &[Complex64]) -> Vec<(u64, u64)> {
    xs.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// The kinds × (n, buffer length) matrix the exactness suite covers.
fn kinds() -> Vec<(TransformKind, usize)> {
    vec![
        (TransformKind::C2C, 1 << 10),
        (TransformKind::R2C, 1 << 11),
        (TransformKind::C2R, 1 << 11),
        (
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 5,
            },
            1 << 10,
        ),
    ]
}

/// In-process ground truth for one transform.
fn inproc_result(kind: TransformKind, input: &[Complex64]) -> Vec<Complex64> {
    let service = FftService::start(serve_config());
    let request = Request::new(input.to_vec()).with_kind(kind);
    let response = service
        .submit(request)
        .expect("in-process admitted")
        .wait()
        .expect("in-process completed");
    let out = match &response.buffer {
        Payload::Owned(v) => v.clone(),
        other => other.to_vec(),
    };
    drop(response);
    service.shutdown();
    out
}

#[test]
fn wire_results_are_bit_identical_to_in_process_for_every_kind() {
    let (server, path) = server("exact");
    let client = Client::connect(ClientConfig::at(&path)).expect("connect");
    for (kind, n) in kinds() {
        let n_log2 = n.trailing_zeros();
        let buffer_len = kind.buffer_len(n_log2);
        for batch in [1usize, 4] {
            let inputs: Vec<Vec<Complex64>> = (0..batch)
                .map(|i| signal(buffer_len, i as f64 * 0.61))
                .collect();
            // Submit the whole batch before waiting on any of it, so the
            // batch really is concurrently in flight over one session.
            let tickets: Vec<_> = inputs
                .iter()
                .map(|input| {
                    let mut lease = client.alloc(kind, n).expect("lease");
                    lease.copy_from_slice(input);
                    client.submit(lease, SubmitOpts::default()).expect("submit")
                })
                .collect();
            for (ticket, input) in tickets.into_iter().zip(&inputs) {
                let response = ticket.wait().unwrap_or_else(|e| {
                    panic!("wire transform failed for {}: {e}", kind.as_string())
                });
                let expect = inproc_result(kind, input);
                assert_eq!(
                    bits(&response),
                    bits(&expect),
                    "wire result must be bit-identical to in-process for {} (batch {batch})",
                    kind.as_string()
                );
            }
        }
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.completed, "all wire work completed");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.deadline_missed, 0);
}

#[test]
fn garbage_entries_count_as_wire_rejections_and_spare_honest_traffic() {
    let (server, path) = server("adversarial");
    let client = Client::connect(ClientConfig::at(&path)).expect("connect");
    // A storm of hostile raw entries: out-of-range slots, stale
    // sequences against slot 0 (currently FREE, so its live seq is 0 and
    // any nonzero guess is stale or bad-state).
    let mut injected = 0u64;
    for i in 0..8u32 {
        if client.session().inject_raw_submit(pack_submit(5000 + i, 1)) {
            injected += 1;
        }
        if client.session().inject_raw_submit(pack_submit(0, 77 + i)) {
            injected += 1;
        }
    }
    assert!(injected > 0, "ring accepted hostile entries");
    // The server counts every one as a wire rejection.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.wire_rejections >= injected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {} of {injected} rejections after 10s",
            stats.wire_rejections
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Honest traffic on the same session still round-trips exactly.
    let input = signal(1 << 10, 0.25);
    let out = client
        .call(TransformKind::C2C, &input, SubmitOpts::default())
        .expect("honest request survives the storm");
    assert_eq!(bits(&out), bits(&inproc_result(TransformKind::C2C, &input)));
    // And the counter is wired through the cluster stats JSON.
    let stats = server.shutdown();
    let json = stats.to_json();
    let counted = json
        .get("wire_rejections")
        .and_then(fgsupport::json::Value::as_u64)
        .expect("wire_rejections key in cluster stats JSON");
    assert!(counted >= injected);
    assert_eq!(stats.accepted, stats.completed);
}

#[test]
fn backpressure_is_overloaded_with_retry_hint_never_a_block() {
    let path = sock("backpressure");
    let server = WireServer::start(WireServerConfig {
        socket_path: path.clone(),
        cluster: ClusterConfig {
            shards: 1,
            base: serve_config(),
            ..ClusterConfig::default()
        },
        acceptors: 1,
        credits_per_session: 2,
        max_sessions: 2,
    })
    .expect("server");
    let client = Client::connect(ClientConfig {
        socket_path: path,
        classes: SegmentConfig {
            classes: vec![SlotClass {
                len_log2: 10,
                count: 4,
            }],
        },
        tenant: None,
    })
    .expect("connect");
    let n = 1 << 10;
    // Two credits: the third submit must refuse, not block.
    let started = Instant::now();
    let mut tickets = Vec::new();
    let mut saw_overload = None;
    for i in 0..3 {
        let mut lease = client.alloc(TransformKind::C2C, n).expect("lease");
        lease.copy_from_slice(&signal(n, i as f64));
        match client.submit(lease, SubmitOpts::default()) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => saw_overload = Some(e),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "submission path must never block"
    );
    match saw_overload {
        Some(ServeError::Overloaded { retry_after_us, .. }) => {
            assert!(retry_after_us > 0, "retry-after hint present");
        }
        other => panic!("expected Overloaded on the third submit, got {other:?}"),
    }
    for ticket in tickets {
        ticket.wait().expect("in-flight pair completes");
    }
    // Credits returned: capacity is available again after completion.
    let lease = client.alloc(TransformKind::C2C, n).expect("lease");
    let ticket = client
        .submit(lease, SubmitOpts::default())
        .expect("credit back");
    ticket.wait().expect("completes");
    drop(client);
    server.shutdown();
}

#[test]
fn sessions_come_and_go_without_unbalancing_the_cluster() {
    let (server, path) = server("churn");
    let mut total = 0u64;
    for round in 0..3 {
        let client = Client::connect(ClientConfig::at(&path)).expect("connect");
        let input = signal(1 << 10, round as f64);
        let out = client
            .call(TransformKind::C2C, &input, SubmitOpts::default())
            .expect("round trip");
        assert_eq!(bits(&out), bits(&inproc_result(TransformKind::C2C, &input)));
        total += 1;
        drop(client);
        // The server notices the hangup and retires the session.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active_sessions() != 0 {
            assert!(Instant::now() < deadline, "session not retired after drop");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, total);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.deadline_missed + stats.failed,
        "cluster accounting balanced across session churn"
    );
}

#[test]
fn deadlines_cross_the_wire() {
    let (server, path) = server("deadline");
    let client = Client::connect(ClientConfig::at(&path)).expect("connect");
    let n = 1 << 10;
    let mut lease = client.alloc(TransformKind::C2C, n).expect("lease");
    lease.copy_from_slice(&signal(n, 0.0));
    let ticket = client
        .submit(
            lease,
            SubmitOpts {
                deadline: Some(Duration::from_nanos(1)),
                ..SubmitOpts::default()
            },
        )
        .expect("submit");
    match ticket.wait() {
        Err(ServeError::DeadlineExceeded) => {}
        // A fast machine may finish inside even a 1ns-anchored window's
        // clock granularity; completion is acceptable, a hang is not.
        Ok(_) => {}
        Err(other) => panic!("expected DeadlineExceeded or success, got {other}"),
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(
        stats.accepted,
        stats.completed + stats.deadline_missed + stats.failed
    );
}
