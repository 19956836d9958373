//! `exec-large`: c2c 2^18 through the library path
//! `Fft::with_planner(..).forward` with library defaults (all cores,
//! fine-guided), bypassing `fgserve` and `fgwire`. The 4 MiB of data
//! exceed a core's L2 and the plan is ~44 MiB, so kernel, bit reversal
//! and table streaming dominate and dispatch overhead is under 1%.

use crate::common::{
    key, nproc, peak_rss_mib, same_bits, timed, Case, ClosedLoop, Ctx, PassLog, Report, MIB,
};
use crate::probe::{self, Workload};
use crate::trace::span;
use fgfft::{Fft, Planner, TransformKind};
use std::sync::Arc;
use std::time::Instant;

const N_LOG2: u32 = 18;
/// Requests per pass: planner counts are compared pass by pass.
const PASS_LEN: u64 = 8;
/// Set-ups spread over the run. Each replaces the engine, so the run
/// holds one plan at a time.
const SETUPS: usize = 240;
/// `cold_latency_us` is this quantile of the set-ups' cold forwards. Their
/// latencies cluster in two modes about a third apart, following whether
/// the host is busy beside the run, and the share of each mode changes from
/// run to run: a median jumps between the modes, a low quantile stays in
/// the faster one unless the whole run is slow. 240 samples leave 24 below it.
const COLD_QUANTILE: f64 = 0.1;

/// A fresh planner and engine, warmed by one forward transform. Set-up is
/// that whole step; the first (cold) forward, which builds the plan, is
/// this workload's cold request. Both times are pushed to their samples.
fn start(case: &Case, report: &mut Report, setups: &mut Vec<f64>, colds: &mut Vec<f64>) -> Fft {
    let mut buffer = case.inputs[0].clone();
    let ((fft, cold), took) = timed(|| {
        let fft = Fft::new().with_planner(Arc::new(Planner::new()));
        let (_, cold) = timed(|| fft.forward(&mut buffer));
        (fft, cold)
    });
    setups.push(took.as_secs_f64());
    colds.push(cold.as_secs_f64() * 1e6);
    report.check(same_bits(&buffer, &case.refs[0]), || {
        "exec-large: warm transform differs from the reference".to_string()
    });
    fft
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = ctx.rng(2);
    let case = Case::new(key(TransformKind::C2C, N_LOG2), 3, &mut rng);

    let (mut setups, mut colds) = (Vec::new(), Vec::new());
    let mut fft = start(&case, &mut report, &mut setups, &mut colds);
    let mut passes = PassLog::default();
    passes.boundary(fft.planner().stats());
    let mut drv = ClosedLoop::new(ctx);
    let mut buffer = case.inputs[0].clone();
    let mut request = 0u64;
    while drv.begin().is_some() {
        if !ctx.trace && request.is_multiple_of(PASS_LEN) && drv.due(setups.len(), SETUPS) {
            drv.pause();
            // Free the previous plan before building the next.
            drop(fft);
            fft = start(&case, &mut report, &mut setups, &mut colds);
            passes.restart(fft.planner().stats());
            drv.resume();
        }
        let input = request as usize % case.inputs.len();
        buffer.copy_from_slice(&case.inputs[input]);
        let tracer = drv.tracer();
        let t0 = Instant::now();
        span(tracer, "fgfft.forward", None, request, || {
            fft.forward(&mut buffer)
        });
        let latency = t0.elapsed();
        drv.pause();
        drv.finish(Some(latency));
        report.check(same_bits(&buffer, &case.refs[input]), || {
            format!("exec-large: request {request} differs from the reference")
        });
        request += 1;
        if request.is_multiple_of(PASS_LEN) {
            passes.boundary(fft.planner().stats());
        }
        drv.resume();
    }
    let resident = fft.planner().stats().resident_bytes;

    let workload = Workload {
        primary: &case,
        workers: nproc(),
        cold_keys: vec![case.key],
        server: None,
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
        colds,
        COLD_QUANTILE,
        resident as f64 / MIB,
        peak_rss_mib(),
    );
    Ok(report)
}
