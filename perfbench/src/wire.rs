//! `wire-small`: c2c 2^10 over `fgwire` to a one-shard `WireServer` with
//! one connected client and a single warm plan key. The transform is a few
//! µs of a ~100 µs round trip, so this workload isolates the per-request
//! layers: ring hop, admission, queue, `prepare`, runtime spawn.

use crate::common::{
    key, key_name, peak_rss_mib, same_bits, shuffle, Case, ClosedLoop, Ctx, PassLog, Report, MIB,
};
use crate::probe::{self, Workload};
use crate::serving::{check_cluster, wire_call, wire_client, wire_server};
use fgfft::{PlanKey, TransformKind};
use fgwire::{Client, WireServer};
use std::path::Path;
use std::time::Instant;

const WARM_LOG2: u32 = 10;
/// Requests per pass: planner counts are compared pass by pass. (Long,
/// because a server stats snapshot sorts the latency reservoir.)
const PASS_LEN: u64 = 4096;
/// Fresh-server passes over the cold key set, spread over the run. Each
/// starts with a timed set-up. (Each also waits ~0.1 s for the server's
/// listener and the client's monitor to notice shutdown.)
const COLD_PASSES: usize = 48;
/// Slot size classes the client maps: every buffer length used here.
const CLASSES: std::ops::RangeInclusive<u32> = 9..=12;

/// Keys no warm request touches, 2^10..2^12 across every kind: each cold
/// pass starts a fresh server, so each of these builds on first use.
fn cold_keys() -> Vec<PlanKey> {
    let mut keys = Vec::new();
    for n_log2 in 10..=12 {
        for kind in [TransformKind::C2C, TransformKind::R2C, TransformKind::C2R] {
            keys.push(key(kind, n_log2));
        }
    }
    for (rows_log2, cols_log2) in [
        (5, 5),
        (4, 6),
        (6, 4),
        (5, 6),
        (6, 5),
        (6, 6),
        (5, 7),
        (7, 5),
    ] {
        let kind = TransformKind::C2C2D {
            rows_log2,
            cols_log2,
        };
        keys.push(key(kind, rows_log2 + cols_log2));
    }
    keys.retain(|k| *k != key(TransformKind::C2C, WARM_LOG2));
    keys
}

struct Session {
    server: WireServer,
    client: Client,
}

/// Server start, session connect, and one warm request (building the
/// warm plan): everything before the first timed request. Returns the
/// session and the time it took to set up.
fn start(socket: &Path, warm: &Case, report: &mut Report) -> Result<(Session, f64), String> {
    let t0 = Instant::now();
    let server = wire_server(socket, 1)?;
    let client = wire_client(socket, CLASSES)?;
    let response = wire_call(&client, &warm.key, &warm.inputs[0], &mut None, None, 0)?;
    let took = t0.elapsed().as_secs_f64();
    report.check(same_bits(&response, &warm.refs[0]), || {
        "wire-small: warm response differs from the reference".to_string()
    });
    Ok((Session { server, client }, took))
}

/// One cold pass: a fresh server set up on the warm key, then every cold
/// key once in `order`. Returns the set-up time and the mean latency of
/// the cold requests.
fn cold_pass(
    socket: &Path,
    warm: &Case,
    cold: &[Case],
    order: &[usize],
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let (session, setup) = start(socket, warm, report)?;
    let mut total_us = 0.0;
    for &i in order {
        let case = &cold[i];
        let t0 = Instant::now();
        let response = wire_call(
            &session.client,
            &case.key,
            &case.inputs[0],
            &mut None,
            None,
            0,
        )
        .map_err(|why| format!("wire-small cold {}: {why}", key_name(&case.key)))?;
        total_us += t0.elapsed().as_secs_f64() * 1e6;
        report.check(same_bits(&response, &case.refs[0]), || {
            format!(
                "wire-small: cold {} differs from the reference",
                key_name(&case.key)
            )
        });
    }
    stop(session, report, "wire-small cold pass");
    Ok((setup, total_us / cold.len() as f64))
}

fn stop(session: Session, report: &mut Report, what: &str) -> fgserve::ClusterStats {
    drop(session.client);
    let stats = session.server.shutdown();
    check_cluster(report, what, &stats);
    stats
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let socket = ctx
        .out_dir
        .join(format!("wire-{}.sock", std::process::id()));
    let cold_socket = ctx
        .out_dir
        .join(format!("wire-cold-{}.sock", std::process::id()));
    let mut rng = ctx.rng(1);
    let warm = Case::new(key(TransformKind::C2C, WARM_LOG2), 16, &mut rng);
    let cold: Vec<Case> = cold_keys()
        .into_iter()
        .map(|k| Case::new(k, 1, &mut rng))
        .collect();

    let (session, setup) = start(&socket, &warm, &mut report)?;
    let mut setups = vec![setup];

    let planner_stats = |s: &Session| s.server.stats().per_shard[0].planner;
    let mut passes = PassLog::default();
    passes.boundary(planner_stats(&session));
    let mut pass_means = Vec::with_capacity(COLD_PASSES);
    let mut order: Vec<usize> = (0..cold.len()).collect();
    let mut drv = ClosedLoop::new(ctx);
    let mut request = 0u64;
    while drv.begin().is_some() {
        if !ctx.trace && drv.due(pass_means.len(), COLD_PASSES) {
            drv.pause();
            shuffle(&mut order, &mut rng);
            let (setup, mean) = cold_pass(&cold_socket, &warm, &cold, &order, &mut report)?;
            setups.push(setup);
            pass_means.push(mean);
            drv.resume();
        }
        let input = request as usize % warm.inputs.len();
        let tracer = drv.tracer();
        let parent = tracer.as_mut().map(|t| t.open("request", None, request));
        let t0 = Instant::now();
        let outcome = wire_call(
            &session.client,
            &warm.key,
            &warm.inputs[input],
            tracer,
            parent,
            request,
        );
        let latency = t0.elapsed();
        if let (Some(t), Some(p)) = (tracer.as_mut(), parent) {
            t.close(p);
        }
        drv.pause();
        match outcome {
            Ok(response) => {
                drv.finish(Some(latency));
                report.check(same_bits(&response, &warm.refs[input]), || {
                    format!("wire-small: request {request} differs from the reference")
                });
            }
            Err(why) => {
                drv.finish(None);
                report
                    .errors
                    .push(format!("wire-small: request {request}: {why}"));
            }
        }
        request += 1;
        if request.is_multiple_of(PASS_LEN) {
            passes.boundary(planner_stats(&session));
        }
        drv.resume();
    }
    let resident = planner_stats(&session).resident_bytes;
    let stats = stop(session, &mut report, "wire-small");

    let workload = Workload {
        primary: &warm,
        workers: 1,
        cold_keys: cold.iter().map(|c| c.key).collect(),
        server: Some(stats.per_shard[0]),
        passes,
    };
    if ctx.trace {
        probe::per_layer(ctx, &mut report, drv, workload)?;
        return Ok(report);
    }

    report
        .samples
        .push(("cold_keys_per_pass".into(), cold.len()));
    probe::end_to_end(
        &mut report,
        &drv,
        setups,
        pass_means,
        0.5,
        resident as f64 / MIB,
        peak_rss_mib(),
    );
    Ok(report)
}
