//! `plan-churn`: one client drives an in-process `FftService` over a small
//! `Planner::with_capacity`. A seeded interleave mixes a hot 2-D key
//! (`c2c2d` 2^6×2^6), which stays resident, with a cyclic stream of cold
//! keys across c2c, r2c, c2r and c2c2d at 2^14..2^16 that evicts itself,
//! so every cold request builds. This is the workload for planner builds
//! and evictions, and the only one that runs warm composite transforms
//! (transpose, untangle).

use crate::common::{
    key, key_name, peak_rss_mib, same_bits, timed, Case, ClosedLoop, Ctx, PassLog, Report, MIB,
};
use crate::probe::{self, Workload};
use crate::serving::{check_service, serve_config};
use crate::trace::span;
use fgfft::{PlanKey, Planner, TransformKind};
use fgserve::{FftService, Request};
use std::sync::Arc;
use std::time::Instant;

/// The hot key: a 64×64 plane.
const HOT: TransformKind = TransformKind::C2C2D {
    rows_log2: 6,
    cols_log2: 6,
};
/// Planner capacity: spread over the planner's 16 shards, one plan each.
const CAPACITY: usize = 16;
/// Hot requests after each cold one: hot traffic is 3/4 of all requests,
/// so the median is a hot request and the p99 a cold one.
const HOT_RUN: usize = 3;
/// Set-ups spread over the run.
const SETUPS: usize = 60;

fn candidates() -> Vec<PlanKey> {
    let mut keys = Vec::new();
    for n_log2 in 14..=16 {
        for kind in [TransformKind::C2C, TransformKind::R2C, TransformKind::C2R] {
            keys.push(key(kind, n_log2));
        }
        for rows_log2 in 6..=n_log2 - 6 {
            let kind = TransformKind::C2C2D {
                rows_log2,
                cols_log2: n_log2 - rows_log2,
            };
            keys.push(key(kind, n_log2));
        }
    }
    keys
}

/// The cold key set, found by observing a planner of the workload's
/// capacity: plan the hot key and then each candidate in turn; the plan
/// that stops being warm shares the newcomer's cache shard. Keep the
/// candidates whose shard holds another candidate and not the hot key.
/// Cycling through them, every request evicts its shard's previous plan,
/// so every cold request builds and the hot key is never evicted.
fn cold_keys(hot: PlanKey) -> Vec<PlanKey> {
    let planner = Planner::with_capacity(CAPACITY);
    let mut keys = vec![hot];
    keys.extend(candidates());
    let mut group: Vec<usize> = (0..keys.len()).collect();
    let mut resident = vec![false; keys.len()];
    for i in 0..keys.len() {
        planner.plan_key(keys[i]);
        for j in 0..i {
            if resident[j] && !planner.is_warm_key(&keys[j]) {
                group[i] = group[j];
                resident[j] = false;
            }
        }
        resident[i] = true;
    }
    let members = |g: usize| group.iter().filter(|&&x| x == g).count();
    (1..keys.len())
        .filter(|&i| group[i] != group[0] && members(group[i]) >= 2)
        .map(|i| keys[i])
        .collect()
}

/// Planner and service start plus one hot request (building the hot
/// plan): everything before the first timed request.
fn start(hot: &Case, report: &mut Report) -> Result<FftService, String> {
    let service =
        FftService::start_with_planner(serve_config(1), Arc::new(Planner::with_capacity(CAPACITY)));
    let response = service
        .submit(Request::new(hot.inputs[0].clone()).with_kind(hot.key.kind))
        .and_then(|ticket| ticket.wait())
        .map_err(|e| format!("plan-churn warm request: {e}"))?;
    report.check(same_bits(&response.buffer, &hot.refs[0]), || {
        "plan-churn: warm response differs from the reference".to_string()
    });
    Ok(service)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = ctx.rng(3);
    let hot = Case::new(key(HOT, 12), 8, &mut rng);
    let cold: Vec<Case> = cold_keys(hot.key)
        .into_iter()
        .map(|k| Case::new(k, 1, &mut rng))
        .collect();
    if cold.len() < 2 {
        return Err(format!("plan-churn: only {} cold keys qualify", cold.len()));
    }
    // One pass: each cold key once, each followed by `HOT_RUN` hot
    // requests. The seed picks the inputs and where in the cycle the run
    // starts, never the mix, so every seed measures the same workload.
    let mut sequence: Vec<(&Case, usize)> = Vec::new();
    for case in &cold {
        sequence.push((case, 0));
        for _ in 0..HOT_RUN {
            sequence.push((&hot, sequence.len() % hot.inputs.len()));
        }
    }
    let phase = rng.gen_range(0..sequence.len());
    sequence.rotate_left(phase);

    let (service, took) = timed(|| start(&hot, &mut report));
    let service = service?;
    let mut setups = vec![took.as_secs_f64()];
    let planner = Arc::clone(service.planner());

    let mut passes = PassLog::default();
    passes.boundary(planner.stats());
    let mut pass_means = Vec::new();
    let (mut pass_cold_us, mut pass_colds) = (0.0, 0usize);
    let mut drv = ClosedLoop::new(ctx);
    let mut request = 0u64;
    while drv.begin().is_some() {
        // Further set-ups, each on a fresh planner and service beside the
        // idle measured one.
        if !ctx.trace && drv.due(setups.len(), SETUPS) {
            drv.pause();
            let (fresh, took) = timed(|| start(&hot, &mut report));
            setups.push(took.as_secs_f64());
            check_service(&mut report, "plan-churn setup", &fresh?.shutdown());
            drv.resume();
        }
        let (case, input) = sequence[request as usize % sequence.len()];
        let is_cold = !planner.is_warm_key(&case.key);
        let buffer = case.inputs[input].clone();
        let tracer = drv.tracer();
        let parent = tracer.as_mut().map(|t| t.open("request", None, request));
        let t0 = Instant::now();
        let outcome = span(tracer, "fgserve.submit", parent, request, || {
            service.submit(Request::new(buffer).with_kind(case.key.kind))
        })
        .and_then(|ticket| span(tracer, "fgserve.wait", parent, request, || ticket.wait()));
        let latency = t0.elapsed();
        if let (Some(t), Some(p)) = (tracer.as_mut(), parent) {
            t.close(p);
        }
        drv.pause();
        match outcome {
            Ok(response) => {
                drv.finish(Some(latency));
                if is_cold {
                    pass_cold_us += latency.as_secs_f64() * 1e6;
                    pass_colds += 1;
                }
                report.check(same_bits(&response.buffer, &case.refs[input]), || {
                    format!(
                        "plan-churn: request {request} ({}) differs from the reference",
                        key_name(&case.key)
                    )
                });
            }
            Err(why) => {
                drv.finish(None);
                report
                    .errors
                    .push(format!("plan-churn: request {request}: {why}"));
            }
        }
        request += 1;
        // Every request boundary counts toward the high-water: over a whole
        // cycle that maximum does not depend on where the run started.
        let stats = planner.stats();
        passes.observe(stats.resident_bytes);
        if (request as usize).is_multiple_of(sequence.len()) {
            passes.boundary(stats);
            if pass_colds > 0 {
                pass_means.push(pass_cold_us / pass_colds as f64);
            }
            (pass_cold_us, pass_colds) = (0.0, 0);
        }
        drv.resume();
    }
    let stats = service.shutdown();
    check_service(&mut report, "plan-churn", &stats);
    report
        .samples
        .push(("cold_keys_per_pass".into(), cold.len()));
    report
        .samples
        .push(("requests_per_pass".into(), sequence.len()));
    report.notes.push((
        "cold_keys".into(),
        cold.iter()
            .map(|c| key_name(&c.key))
            .collect::<Vec<_>>()
            .join(" "),
    ));

    let resident_mib = passes.resident_high_water as f64 / MIB;
    let workload = Workload {
        primary: &hot,
        workers: 1,
        cold_keys: cold.iter().map(|c| c.key).collect(),
        server: Some(stats),
        passes,
    };
    if ctx.trace {
        probe::per_layer(ctx, &mut report, drv, workload)?;
        return Ok(report);
    }
    probe::end_to_end(
        &mut report,
        &drv,
        setups,
        pass_means,
        0.5,
        resident_mib,
        peak_rss_mib(),
    );
    Ok(report)
}
