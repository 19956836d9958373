//! Turning a workload run into metrics. `end_to_end` reads the untraced
//! run. `per_layer` reads the traced run and then probes each layer on
//! the workload's own plan: every call into `fgfft::planner`,
//! `fgfft::cert`, `fgfft::backend`, `fgfft::bitrev`, `codelet::runtime`,
//! `fgserve` and `fgwire` is wrapped in a span, and the layer metrics are
//! order statistics over those spans.

use crate::common::{
    key_name, nproc, same_bits, timed, Case, ClosedLoop, Ctx, PassLog, Report, VERSION,
};
use crate::serving::{
    check_cluster, cluster_call, cluster_config, wire_call, wire_client, wire_server,
};
use crate::stats::{beyond, median, quantile};
use crate::trace::{span, Tracer};
use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use fgfft::bitrev::apply_swaps_parallel;
use fgfft::planner::{Plan, PlanKey, Planner};
use fgfft::workload::ScheduleSpec;
use fgfft::{BackendSel, Certificate, PreparedPlan, TransformKind};
use fgserve::{FftCluster, ServeStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a workload hands over for its metrics.
pub struct Workload<'a> {
    /// The workload's own warm key, with inputs and references.
    pub primary: &'a Case,
    /// Runtime workers the workload executes with.
    pub workers: usize,
    /// The keys whose plans the workload builds cold.
    pub cold_keys: Vec<PlanKey>,
    /// The workload's server after the run, when it has one.
    pub server: Option<ServeStats>,
    pub passes: PassLog,
}

/// The end-to-end metrics of an untraced run. `cold_latency_us` is the
/// `cold_quantile` of `colds`, one sample per pass.
pub fn end_to_end(
    report: &mut Report,
    drv: &ClosedLoop,
    mut setups: Vec<f64>,
    mut colds: Vec<f64>,
    cold_quantile: f64,
    plan_resident_mib: f64,
    peak_rss_mib: f64,
) {
    report.attempted = drv.attempted;
    report.failed = drv.failed;
    let mut latencies = drv.latencies_us.clone();
    report.e2e("throughput_per_s", drv.window_throughput(), "1/s");
    report.e2e("latency_p50_us", quantile(&mut latencies, 0.5), "us");
    report.e2e("cold_latency_us", quantile(&mut colds, cold_quantile), "us");
    report.e2e("setup_s", median(&mut setups), "s");
    report.e2e("peak_rss_mib", peak_rss_mib, "MiB");
    report.e2e("plan_resident_mib", plan_resident_mib, "MiB");
    report.samples.push(("latency".into(), latencies.len()));
    report.samples.push(("cold_passes".into(), colds.len()));
    report.samples.push(("setups".into(), setups.len()));
}

/// The per-layer metrics of a traced run: the run's own counts and
/// tracing overhead, then the layer probes. Writes the spans.
pub fn per_layer(
    ctx: &Ctx,
    report: &mut Report,
    drv: ClosedLoop,
    w: Workload,
) -> Result<(), String> {
    report.attempted = drv.attempted;
    report.failed = drv.failed;
    let counts = match w.passes.steady() {
        Ok(counts) => counts,
        Err(why) => {
            report.errors.push(why);
            return Ok(());
        }
    };
    let mut latencies = drv.latencies_us.clone();
    let overhead = drv.throughput(true) / drv.throughput(false);
    let mut tracer = Some(drv.tracer.unwrap_or_else(Tracer::new));

    let plan = Arc::new(Plan::build(w.primary.key));
    let layers = Layers::probe(&mut tracer, &plan, w.primary, w.workers, &w.cold_keys)?;
    let door = FrontDoor::probe(ctx, &mut tracer, report, w.primary, w.workers)?;
    let server = w.server.unwrap_or(door.server);
    let server_p50_us = server.latency_ms.p50 * 1e3;

    report.layer("fgwire.alloc_us", door.alloc_us, "us");
    report.layer("fgwire.submit_us", door.wire_submit_us, "us");
    report.layer("fgwire.wait_us", door.wait_us, "us");
    report.layer("fgwire.transit_us", door.wire_us - door.inproc_us, "us");
    report.layer(
        "fgwire.over_inproc_ratio",
        door.wire_us / door.inproc_us,
        "ratio",
    );
    report.layer("fgserve.submit_us", door.serve_submit_us, "us");
    report.layer("fgserve.server_latency_p50_us", server_p50_us, "us");
    report.layer(
        "fgserve.dispatch_overhead_us",
        server_p50_us - (layers.lookup_us + layers.prepare_us + layers.execute_us),
        "us",
    );
    report.layer(
        "fgserve.mean_batch_size",
        server.mean_batch_size(),
        "requests",
    );
    report.layer(
        "fgserve.cold_deferred",
        server.cold_deferred as f64,
        "count",
    );
    report.layer("fgserve.pool_reuse_ratio", door.pool_reuse, "ratio");
    report.layer("planner.lookup_us", layers.lookup_us, "us");
    report.layer("planner.build_us", layers.build_us, "us");
    report.layer("planner.bytes_per_point", layers.bytes_per_point, "B");
    let lookups = counts.hits + counts.misses;
    report.layer(
        "planner.hit_ratio",
        counts.hits as f64 / lookups as f64,
        "ratio",
    );
    report.layer("planner.builds", counts.builds as f64, "count");
    report.layer("planner.evictions", counts.evictions as f64, "count");
    report.layer(
        "cert.verify_over_build_ratio",
        layers.verify_over_build,
        "ratio",
    );
    report.layer("backend.prepare_us", layers.prepare_us, "us");
    report.layer("backend.execute_us", layers.execute_us, "us");
    report.layer(
        "backend.gflops",
        flops(&plan.key()) / layers.execute_us / 1e3,
        "GFLOP/s",
    );
    report.layer(
        "backend.bytes_per_transform",
        bytes_per_transform(&plan),
        "B",
    );
    report.layer(
        "backend.simd_over_scalar_ratio",
        layers.simd_us / layers.execute_us,
        "ratio",
    );
    report.layer("bitrev.apply_us", layers.bitrev_us, "us");
    report.layer("runtime.dispatch_empty_us", layers.dispatch_us, "us");
    report.layer(
        "runtime.codelet_work_us",
        layers.execute_us - layers.bitrev_us - layers.dispatch_us,
        "us",
    );
    report.layer(
        "runtime.worker_speedup",
        layers.one_worker_us / layers.all_workers_us,
        "ratio",
    );
    report.layer("exec.latency_p90_us", quantile(&mut latencies, 0.9), "us");
    report.layer(
        "client.latency_p99_us",
        quantile(&mut latencies, 0.99),
        "us",
    );
    report.layer("trace.overhead_ratio", overhead, "ratio");

    let tracer = tracer.expect("tracing");
    report.samples.push(("latency".into(), latencies.len()));
    report
        .samples
        .push(("latency_beyond_p99".into(), beyond(&mut latencies, 0.99)));
    report
        .samples
        .push(("steady_passes".into(), w.passes.passes.len() - 1));
    report.samples.push(("spans".into(), tracer.len()));
    report
        .notes
        .push(("probe_key".into(), key_name(&w.primary.key)));
    report
        .notes
        .push(("probe_workers".into(), w.workers.to_string()));
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report
        .notes
        .push(("spans_file".into(), path.display().to_string()));
    Ok(())
}

/// How many repetitions fit `budget` at `cost` each, within `min..=max`.
fn reps(budget: Duration, cost: Duration, min: usize, max: usize) -> usize {
    let fit = budget.as_secs_f64() / cost.as_secs_f64().max(1e-9);
    (fit as usize).clamp(min, max)
}

/// Median duration in µs of the `name` spans recorded since `from`.
fn p50(tracer: &Option<Tracer>, name: &str, from: usize) -> f64 {
    median(&mut tracer.as_ref().expect("tracing").micros_since(name, from))
}

fn total(tracer: &Option<Tracer>, name: &str, from: usize) -> f64 {
    tracer
        .as_ref()
        .expect("tracing")
        .micros_since(name, from)
        .iter()
        .sum()
}

fn mark(tracer: &Option<Tracer>) -> usize {
    tracer.as_ref().expect("tracing").len()
}

/// Layer timings on one plan, outside any server.
struct Layers {
    lookup_us: f64,
    build_us: f64,
    bytes_per_point: f64,
    verify_over_build: f64,
    prepare_us: f64,
    execute_us: f64,
    simd_us: f64,
    one_worker_us: f64,
    all_workers_us: f64,
    bitrev_us: f64,
    dispatch_us: f64,
}

impl Layers {
    fn probe(
        tr: &mut Option<Tracer>,
        plan: &Arc<Plan>,
        case: &Case,
        workers: usize,
        cold_keys: &[PlanKey],
    ) -> Result<Self, String> {
        let from = mark(tr);

        // planner: warm lookups of the workload's own key.
        let planner = Planner::new();
        planner.plan_key(plan.key());
        for i in 0..2000 {
            span(tr, "planner.plan_key", None, i, || {
                planner.plan_key(plan.key())
            });
        }

        // planner + cert: cold builds of the workload's cold key set, and
        // re-verification of each built plan against its certificate.
        let (mut bytes, mut points) = (0u64, 0u64);
        let start = Instant::now();
        let mut rep = 0;
        while rep < 3 || (rep < 50 && start.elapsed() < Duration::from_millis(600)) {
            for &key in cold_keys {
                let built = span(tr, "planner.build", None, rep, || Plan::build(key));
                let cert =
                    Certificate::for_plan(&built).map_err(|e| format!("certificate: {e}"))?;
                span(tr, "cert.verify_plan", None, rep, || {
                    cert.verify_plan(&built)
                })
                .map_err(|e| format!("verify_plan: {e}"))?;
                if rep == 0 {
                    bytes += built.resident_bytes();
                    points += key.n() as u64;
                }
            }
            rep += 1;
        }

        // backend: prepare as fgserve does once per batch, then execute the
        // plan with the scalar and SIMD kernels and at one and at every
        // worker, interleaved so drift hits all four alike.
        for i in 0..500 {
            span(tr, "backend.prepare", None, i, || {
                BackendSel::SCALAR.build().prepare(plan)
            });
        }
        let scalar = BackendSel::SCALAR.build().prepare(plan);
        let simd = BackendSel::SIMD.build().prepare(plan);
        let runtime = Runtime::with_workers(workers);
        let one = Runtime::with_workers(1);
        let all = Runtime::with_workers(nproc());
        let mut buffer = case.inputs[0].clone();
        let (_, cost) = timed(|| scalar.execute(&mut buffer, &runtime));
        let n = reps(Duration::from_millis(300), cost, 10, 2000) as u64;
        let variants: [(&'static str, &PreparedPlan, &Runtime); 4] = [
            ("backend.execute", &scalar, &runtime),
            ("backend.execute.simd", &simd, &runtime),
            ("backend.execute.one_worker", &scalar, &one),
            ("backend.execute.all_workers", &scalar, &all),
        ];
        for i in 0..n {
            for (name, prepared, rt) in variants {
                buffer.copy_from_slice(&case.inputs[0]);
                span(tr, name, None, i, || prepared.execute(&mut buffer, rt));
                if !same_bits(&buffer, &case.refs[0]) {
                    return Err(format!("{name} differs from the reference"));
                }
            }
        }

        // bitrev and runtime: the plan's swap list, and one dispatch of the
        // plan's own schedule with a no-op codelet body.
        let mut scratch = case.inputs[0][..plan.fft_plan().n()].to_vec();
        let spec = ScheduleSpec::of(*plan.fft_plan(), VERSION);
        for i in 0..2 * n {
            span(tr, "bitrev.apply_swaps_parallel", None, i, || {
                apply_swaps_parallel(&mut scratch, plan.bitrev_swaps(), workers)
            });
            span(tr, "runtime.run_empty", None, i, || {
                dispatch_empty(&spec, &runtime)
            });
        }

        Ok(Self {
            lookup_us: p50(tr, "planner.plan_key", from),
            build_us: p50(tr, "planner.build", from),
            bytes_per_point: bytes as f64 / points as f64,
            verify_over_build: total(tr, "cert.verify_plan", from)
                / total(tr, "planner.build", from),
            prepare_us: p50(tr, "backend.prepare", from),
            execute_us: p50(tr, "backend.execute", from),
            simd_us: p50(tr, "backend.execute.simd", from),
            one_worker_us: p50(tr, "backend.execute.one_worker", from),
            all_workers_us: p50(tr, "backend.execute.all_workers", from),
            bitrev_us: p50(tr, "bitrev.apply_swaps_parallel", from),
            dispatch_us: p50(tr, "runtime.run_empty", from),
        })
    }
}

/// One run of the schedule a plan executes, with an empty codelet body:
/// thread spawn, counters and pools, and nothing else.
fn dispatch_empty(spec: &ScheduleSpec, runtime: &Runtime) {
    match spec {
        ScheduleSpec::Phased { phases } => {
            runtime.run_phased(phases, |_| {});
        }
        ScheduleSpec::Fine { graph, seeds } => {
            runtime.run_with_seed_order(graph, PoolDiscipline::Lifo, seeds, |_| {});
        }
        ScheduleSpec::Guided {
            early,
            early_seeds,
            late,
            late_seeds,
        } => {
            runtime.run_partial(
                early,
                PoolDiscipline::Lifo,
                early_seeds,
                early.expected(),
                |_| {},
            );
            runtime.run_partial(
                late,
                PoolDiscipline::Lifo,
                late_seeds,
                late.expected(),
                |_| {},
            );
        }
    }
}

/// Nominal operation count: 5·N·log2 N for complex transforms, half that
/// for the real kinds.
fn flops(key: &PlanKey) -> f64 {
    let n = key.n() as f64;
    let full = 5.0 * n * f64::from(key.n_log2);
    match key.kind {
        TransformKind::R2C | TransformKind::C2R => full / 2.0,
        _ => full,
    }
}

/// Bytes one transform moves, computed from array sizes (not measured):
/// per codelet stage the data read and written plus the stage's gather,
/// pair and twiddle tables, and the bit-reversal swap list with the four
/// element accesses of each swap. Real kinds add the untangle pass; 2-D
/// runs the row and column waves and two transposes.
fn bytes_per_transform(plan: &Plan) -> f64 {
    const C: f64 = 16.0;
    fn inner(plan: &Plan) -> f64 {
        let fft = plan.fft_plan();
        let stages = fft.stages();
        let tables: usize = (0..stages)
            .map(|s| {
                let t = plan.stage_table(s);
                t.gather.len() * 4 + t.pairs.len() * 8 + t.twiddles.len() * 16
            })
            .sum();
        let swaps = plan.bitrev_swaps().len() as f64;
        stages as f64 * 2.0 * fft.n() as f64 * C + tables as f64 + swaps * (8.0 + 4.0 * C)
    }
    let key = plan.key();
    match key.kind {
        TransformKind::C2C => inner(plan),
        TransformKind::R2C | TransformKind::C2R => {
            let untangle = plan.untangle().map_or(0, <[_]>::len) as f64;
            inner(plan) + untangle * C + 2.0 * key.buffer_len() as f64 * C
        }
        TransformKind::C2C2D {
            rows_log2,
            cols_log2,
        } => {
            let col = plan.col_plan().expect("2-D plans carry a column plan");
            let rows = f64::from(1u32 << rows_log2);
            let cols = f64::from(1u32 << cols_log2);
            rows * inner(plan) + cols * inner(col) + 2.0 * 2.0 * key.n() as f64 * C
        }
    }
}

/// The serving front doors on the workload's own key: a one-shard wire
/// server and a one-shard in-process cluster with the workload's worker
/// count, driven in alternating blocks by one closed-loop client.
struct FrontDoor {
    alloc_us: f64,
    wire_submit_us: f64,
    wait_us: f64,
    wire_us: f64,
    inproc_us: f64,
    serve_submit_us: f64,
    pool_reuse: f64,
    server: ServeStats,
}

impl FrontDoor {
    fn probe(
        ctx: &Ctx,
        tr: &mut Option<Tracer>,
        report: &mut Report,
        case: &Case,
        workers: usize,
    ) -> Result<Self, String> {
        const BLOCK: usize = 20;
        let key = case.key;
        let socket = ctx
            .out_dir
            .join(format!("probe-{}.sock", std::process::id()));
        let server = wire_server(&socket, workers)?;
        let client = wire_client(&socket, [key.buffer_len().trailing_zeros()])?;
        let cluster = FftCluster::start(cluster_config(workers));
        let (warm, cost) = timed(|| wire_call(&client, &key, &case.inputs[0], &mut None, None, 0));
        drop(warm?);
        drop(cluster_call(
            &cluster,
            &key,
            &case.inputs[0],
            &mut None,
            None,
            0,
        )?);
        let per_side = reps(Duration::from_millis(400), cost, 2 * BLOCK, 200 * BLOCK);

        let from = mark(tr);
        let mut request = 0u64;
        for _ in 0..per_side.div_ceil(BLOCK) {
            for _ in 0..BLOCK {
                let i = request as usize % case.inputs.len();
                let parent = tr.as_mut().map(|t| t.open("fgwire.request", None, request));
                let response = wire_call(&client, &key, &case.inputs[i], tr, parent, request)?;
                if let (Some(t), Some(p)) = (tr.as_mut(), parent) {
                    t.close(p);
                }
                report.check(same_bits(&response, &case.refs[i]), || {
                    format!("wire probe request {request} differs from the reference")
                });
                request += 1;
            }
            for _ in 0..BLOCK {
                let i = request as usize % case.inputs.len();
                let parent = tr
                    .as_mut()
                    .map(|t| t.open("fgserve.request", None, request));
                let response = cluster_call(&cluster, &key, &case.inputs[i], tr, parent, request)?;
                if let (Some(t), Some(p)) = (tr.as_mut(), parent) {
                    t.close(p);
                }
                report.check(same_bits(&response.buffer, &case.refs[i]), || {
                    format!("in-process probe request {request} differs from the reference")
                });
                request += 1;
            }
        }
        drop(client);
        check_cluster(report, "wire probe", &server.shutdown());
        let stats = cluster.shutdown();
        check_cluster(report, "in-process probe", &stats);

        Ok(Self {
            alloc_us: p50(tr, "fgwire.alloc", from),
            wire_submit_us: p50(tr, "fgwire.submit", from),
            wait_us: p50(tr, "fgwire.wait", from),
            wire_us: p50(tr, "fgwire.request", from),
            inproc_us: p50(tr, "fgserve.request", from),
            serve_submit_us: p50(tr, "fgserve.submit", from),
            pool_reuse: stats.pool.reuse_rate(),
            server: stats.per_shard[0],
        })
    }
}
