//! Criterion: host wall-clock of the fine-guided plan at 2^10, 2^14, 2^16
//! and 2^18 points, on one runtime worker and on every core, beside a
//! runtime-free floor: the same plan's codelets fired stage by stage on the
//! calling thread. The gap between the floor and a row is what the plan's
//! schedule, dispatch and memory order cost on this host; the gap between
//! the two worker counts is what threading buys. Each size also times
//! `Plan::build` (the cold set-up a cache miss pays) and prints the plan's
//! resident bytes per point.
//!
//! ```text
//! cargo bench -p fft-repro --bench host_fft
//! ```

use codelet::runtime::Runtime;
use fgfft::exec::shared::SharedData;
use fgfft::{Complex64, Plan, PlanKey, Version};
use fgsupport::bench::{BatchSize, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};

const SIZES_LOG2: [u32; 4] = [10, 14, 16, 18];

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

fn bench_sizes(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let version = Version::FineGuided;
    for n_log2 in SIZES_LOG2 {
        let n = 1usize << n_log2;
        let input = signal(n);
        let key = PlanKey::new(n, version, version.layout());
        let plan = Plan::build(key);
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
            group.bench_function(format!("{} @ {workers}w", version.name()), |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| plan.execute(&mut data, &runtime),
                    BatchSize::LargeInput,
                );
            });
        }
        group.bench_function("Plan::build", |b| b.iter(|| Plan::build(key)));
        group.bench_function("stage-order floor (no runtime)", |b| {
            b.iter_batched(
                || input.clone(),
                |mut data| stage_order_fft(&mut data, &plan),
                BatchSize::LargeInput,
            );
        });
        group.finish();
    }
}

criterion_group!(benches, bench_sizes);
criterion_main!(benches);
