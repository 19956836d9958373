//! Calls into `fgwire` and `fgserve` with their spans, the configurations
//! the benchmark starts them with, and the accounting checks run after
//! every drain.

use crate::common::Report;
use crate::trace::{span, Tracer};
use fgfft::planner::PlanKey;
use fgfft::Complex64;
use fgserve::{ClusterConfig, ClusterStats, FftCluster, Request, ServeConfig, ServeStats};
use fgwire::proto::{SegmentConfig, SlotClass};
use fgwire::{Client, ClientConfig, SubmitOpts, WireResponse, WireServer, WireServerConfig};
use std::path::Path;

/// One shard, one dispatcher, `workers` runtime workers, no deadlines:
/// the fewest server threads the path allows.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        dispatchers: 1,
        ..ServeConfig::default()
    }
}

pub fn cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        shards: 1,
        base: serve_config(workers),
        ..ClusterConfig::default()
    }
}

/// One shard, one acceptor (and so one completer).
pub fn wire_server(socket: &Path, workers: usize) -> Result<WireServer, String> {
    WireServer::start(WireServerConfig {
        socket_path: socket.to_path_buf(),
        cluster: cluster_config(workers),
        acceptors: 1,
        ..WireServerConfig::default()
    })
    .map_err(|e| format!("wire server start: {e}"))
}

/// A client whose segment has two slots of every size class in `classes`
/// (log2 of the buffer length in samples).
pub fn wire_client(
    socket: &Path,
    classes: impl IntoIterator<Item = u32>,
) -> Result<Client, String> {
    Client::connect(ClientConfig {
        classes: SegmentConfig {
            classes: classes
                .into_iter()
                .map(|len_log2| SlotClass { len_log2, count: 2 })
                .collect(),
        },
        ..ClientConfig::at(socket)
    })
    .map_err(|e| format!("wire connect: {e}"))
}

/// One wire round trip: lease a slot, write the input in place, submit
/// without a deadline, wait. Spans: `fgwire.alloc`, `fgwire.submit`,
/// `fgwire.wait` under `parent`.
pub fn wire_call(
    client: &Client,
    key: &PlanKey,
    input: &[Complex64],
    tracer: &mut Option<Tracer>,
    parent: Option<usize>,
    request: u64,
) -> Result<WireResponse, String> {
    let mut lease = span(tracer, "fgwire.alloc", parent, request, || {
        client.alloc(key.kind, key.n())
    })
    .map_err(|e| format!("alloc: {e}"))?;
    lease.copy_from_slice(input);
    let ticket = span(tracer, "fgwire.submit", parent, request, || {
        client.submit(lease, SubmitOpts::default())
    })
    .map_err(|e| format!("submit: {e}"))?;
    span(tracer, "fgwire.wait", parent, request, || ticket.wait()).map_err(|e| format!("wait: {e}"))
}

/// One in-process round trip through the cluster front door with a pooled
/// lease. Spans: `fgserve.submit`, `fgserve.wait` under `parent`.
pub fn cluster_call(
    cluster: &FftCluster,
    key: &PlanKey,
    input: &[Complex64],
    tracer: &mut Option<Tracer>,
    parent: Option<usize>,
    request: u64,
) -> Result<fgserve::Response, String> {
    let mut lease = cluster.lease(input.len());
    lease.copy_from_slice(input);
    let ticket = span(tracer, "fgserve.submit", parent, request, || {
        cluster.submit(Request::pooled(lease).with_kind(key.kind))
    })
    .map_err(|e| format!("submit: {e}"))?;
    span(tracer, "fgserve.wait", parent, request, || ticket.wait())
        .map_err(|e| format!("wait: {e}"))
}

/// The correctness gate's accounting checks on a drained cluster.
pub fn check_cluster(report: &mut Report, what: &str, stats: &ClusterStats) {
    report.check(stats.accepted == stats.settled(), || {
        format!(
            "{what}: accepted {} != completed {} + deadline_missed {} + failed {}",
            stats.accepted, stats.completed, stats.deadline_missed, stats.failed
        )
    });
    report.check(stats.pool.outstanding == 0, || {
        format!("{what}: {} pool leases outstanding", stats.pool.outstanding)
    });
    report.check(stats.wire_rejections == 0, || {
        format!("{what}: {} wire rejections", stats.wire_rejections)
    });
    check_refusals(
        report,
        what,
        stats.rejected + stats.throttled,
        stats.deadline_missed,
        stats.failed,
    );
}

/// The accounting checks on a drained single service.
pub fn check_service(report: &mut Report, what: &str, stats: &ServeStats) {
    report.check(stats.accepted == stats.settled(), || {
        format!(
            "{what}: accepted {} != completed {} + deadline_missed {} + failed {}",
            stats.accepted, stats.completed, stats.deadline_missed, stats.failed
        )
    });
    report.check(stats.wire_rejections == 0, || {
        format!("{what}: {} wire rejections", stats.wire_rejections)
    });
    check_refusals(
        report,
        what,
        stats.rejected + stats.throttled,
        stats.deadline_missed,
        stats.failed,
    );
}

/// Honest load is never refused, never late and never fails.
fn check_refusals(report: &mut Report, what: &str, refused: u64, late: u64, failed: u64) {
    report.check(refused + late + failed == 0, || {
        format!("{what}: {refused} refused, {late} deadline misses, {failed} failed")
    });
}
