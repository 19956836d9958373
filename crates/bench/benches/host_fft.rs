//! Criterion: host wall-clock of the fine-guided plan at 2^10, 2^12, 2^14,
//! 2^16 and 2^18 points, on one runtime worker and on every core, each through
//! the scalar reference kernel (`Plan::execute`) and the host's default
//! kernel (what `Fft::forward` runs), beside a runtime-free floor: the same
//! plan's production bit reversal and codelets fired stage by stage on the
//! calling thread. The gap between the floor and a row is what the plan's
//! schedule, dispatch and memory order cost on this host; the gap between
//! the two worker counts is what threading buys; the gap between the two
//! kernels is what vectorizing buys. `prepare (default)` is the per-batch
//! kernel choice the serving path pays. Each size also times
//! `Plan::build` (the cold set-up a cache miss pays) beside its two
//! largest parts, `TwiddleTable::new` and `TileProgram::lower`, and prints
//! the plan's resident bytes per point; 2^20 gets these build rows alone.
//! `Plan::build / TwiddleTable::new` is then a ratio taken within one
//! run. At 2^12 and 2^18 one row per stage times
//! that stage alone through the default kernel, tile by tile on the
//! calling thread (`PreparedPlan::run_stage`): the layer the kernel owns,
//! without bit reversal, schedule or dispatch.
//!
//! ```text
//! cargo bench -p fft-repro --bench host_fft
//! ```

use codelet::runtime::Runtime;
use fgfft::bitrev::bit_reverse_tiled;
use fgfft::exec::shared::SharedData;
use fgfft::tiles::TileProgram;
use fgfft::workload::ScheduleSpec;
use fgfft::{BackendSel, Complex64, FftPlan, Plan, PlanKey, TwiddleTable, Version};
use fgsupport::bench::{BatchSize, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};
use std::sync::Arc;

const SIZES_LOG2: [u32; 4] = [10, 14, 16, 18];
/// Sizes that also get one row per stage.
const STAGE_SIZES_LOG2: [u32; 2] = [12, 18];
/// Sizes that get only the build rows.
const BUILD_SIZES_LOG2: [u32; 1] = [20];

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.19).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

/// The production bit reversal, then every codelet of `plan` in stage
/// order on the calling thread: no counters, no pool, no spawned worker.
fn stage_order_fft(data: &mut [Complex64], plan: &Plan) {
    bit_reverse_tiled(data, &Runtime::with_workers(1));
    let view = SharedData::new(data);
    for id in 0..plan.fft_plan().total_codelets() {
        // SAFETY: one thread, ids in stage order: every parent of `id` has
        // completed on this thread before it runs.
        unsafe { plan.run_codelet(&view, id) };
    }
}

fn bench_sizes(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let version = Version::FineGuided;
    for n_log2 in SIZES_LOG2
        .into_iter()
        .chain(STAGE_SIZES_LOG2)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let n = 1usize << n_log2;
        let input = signal(n);
        let key = PlanKey::new(n, version, version.layout());
        let plan = Arc::new(Plan::build(key));
        let default = BackendSel::default().prepare(&plan);
        let name = format!("host_fft_2e{n_log2}");
        println!(
            "{:60} {:>14.1} B/point",
            format!("{name}/plan resident bytes"),
            plan.resident_bytes() as f64 / n as f64
        );
        let mut group = c.benchmark_group(name);
        group.throughput(Throughput::Elements(5 * n as u64 * n_log2 as u64));
        group.sample_size(if n_log2 >= 18 { 30 } else { 200 });
        for workers in [1, cores] {
            let runtime = Runtime::with_workers(workers);
            group.bench_function(format!("{} scalar @ {workers}w", version.name()), |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| plan.execute(&mut data, &runtime),
                    BatchSize::LargeInput,
                );
            });
            group.bench_function(format!("{} default @ {workers}w", version.name()), |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| default.execute(&mut data, &runtime),
                    BatchSize::LargeInput,
                );
            });
        }
        build_rows(&mut group, key);
        group.bench_function("prepare (default)", |b| {
            b.iter(|| BackendSel::default().prepare(&plan))
        });
        group.bench_function("stage-order floor (no runtime)", |b| {
            b.iter_batched(
                || input.clone(),
                |mut data| stage_order_fft(&mut data, &plan),
                BatchSize::LargeInput,
            );
        });
        if STAGE_SIZES_LOG2.contains(&n_log2) {
            for stage in 0..plan.fft_plan().stages() {
                group.bench_function(format!("stage {stage}, default kernel, stage order"), |b| {
                    b.iter_batched(
                        || input.clone(),
                        |mut data| default.run_stage(&mut data, stage),
                        BatchSize::LargeInput,
                    );
                });
            }
        }
        group.finish();
    }
}

/// `Plan::build` of `key` and its two largest parts, each alone.
fn build_rows(group: &mut fgsupport::bench::BenchmarkGroup<'_>, key: PlanKey) {
    let fft = FftPlan::new(key.n_log2, key.radix_log2);
    let spec = ScheduleSpec::of(fft, key.version);
    group.bench_function("Plan::build", |b| b.iter(|| Plan::build(key)));
    group.bench_function("TwiddleTable::new", |b| {
        b.iter(|| TwiddleTable::new(fft.n_log2(), key.layout))
    });
    group.bench_function("TileProgram::lower", |b| {
        b.iter(|| TileProgram::lower(&fft, &spec))
    });
}

fn bench_builds(c: &mut Criterion) {
    let version = Version::FineGuided;
    for n_log2 in BUILD_SIZES_LOG2 {
        let n = 1usize << n_log2;
        let key = PlanKey::new(n, version, version.layout());
        let name = format!("host_fft_2e{n_log2}");
        println!(
            "{:60} {:>14.1} B/point",
            format!("{name}/plan resident bytes"),
            Plan::build(key).resident_bytes() as f64 / n as f64
        );
        let mut group = c.benchmark_group(name);
        group.sample_size(20);
        build_rows(&mut group, key);
        group.finish();
    }
}

criterion_group!(benches, bench_sizes, bench_builds);
criterion_main!(benches);
