//! Criterion: host wall-clock of the five algorithm versions on one input
//! size, each running its cached plan on the codelet runtime, plus a
//! runtime-free floor: the same plan's codelets fired stage by stage on the
//! calling thread. The gap between the floor and a version is what its
//! schedule and dispatch cost on this host.

use codelet::runtime::Runtime;
use fgfft::exec::shared::SharedData;
use fgfft::{Complex64, Plan, PlanKey, SeedOrder, Version};
use fgsupport::bench::{BenchmarkId, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};

const N_LOG2: u32 = 16;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.19).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

/// Every codelet of `plan` in stage order on the calling thread: no
/// runtime, no counters, no pool.
fn stage_order_fft(data: &mut [Complex64], plan: &Plan) {
    for &(a, b) in plan.bitrev_swaps() {
        data.swap(a as usize, b as usize);
    }
    let view = SharedData::new(data);
    for id in 0..plan.fft_plan().total_codelets() {
        // SAFETY: one thread, ids in stage order: every parent of `id` has
        // completed on this thread before it runs.
        unsafe { plan.run_codelet(&view, id) };
    }
}

fn bench_versions(c: &mut Criterion) {
    let n = 1usize << N_LOG2;
    let input = signal(n);
    let flops = 5 * n as u64 * N_LOG2 as u64;
    let mut group = c.benchmark_group("host_fft_2e16");
    group.throughput(Throughput::Elements(flops));
    group.sample_size(20);

    let runtime = Runtime::with_workers(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    for version in [
        Version::Coarse,
        Version::CoarseHash,
        Version::Fine(SeedOrder::Natural),
        Version::FineHash(SeedOrder::Natural),
        Version::FineGuided,
    ] {
        let plan = Plan::build(PlanKey::new(n, version, version.layout()));
        group.bench_with_input(
            BenchmarkId::new("codelet", version.name()),
            &version,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| plan.execute(&mut data, &runtime),
                    fgsupport::bench::BatchSize::LargeInput,
                );
            },
        );
    }

    let plan = Plan::build(PlanKey::new(n, Version::Coarse, Version::Coarse.layout()));
    group.bench_function("stage-order floor (no runtime)", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| stage_order_fft(&mut data, &plan),
            fgsupport::bench::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_versions);
criterion_main!(benches);
