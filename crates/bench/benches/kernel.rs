//! Criterion: codelet work across work-unit sizes — the host-side
//! companion of Fig. 7's codelet-size study. For each codelet radix at
//! 2^14 points, stages 0 and 1 run whole as production runs them: tile by
//! tile through the host's default kernel (`PreparedPlan::run_stage`, the
//! lane kernel). The `scalar` row beside them times one codelet at a time
//! through the scalar reference (`Plan::run_codelet`). Throughput counts
//! `5·P·p` flops per `P`-point codelet in every row, so the rows compare.
//!
//! ```text
//! cargo bench -p fft-repro --bench kernel
//! ```

use fgfft::exec::shared::SharedData;
use fgfft::{BackendSel, Complex64, Plan, PlanKey, TwiddleLayout, Version};
use fgsupport::bench::{BatchSize, BenchmarkId, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};
use std::sync::Arc;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
        .collect()
}

/// Time codelets `stage · cps + idx` of `plan` for a cycling `idx`. The
/// values are garbage in, garbage out (no bit reversal, no earlier
/// stages), which a timing loop does not care about.
fn bench_stage(b: &mut fgsupport::bench::Bencher, plan: &Plan, stage: usize) {
    let mut work = signal(plan.fft_plan().n());
    let view = SharedData::new(&mut work);
    let cps = plan.fft_plan().codelets_per_stage();
    let mut idx = 0usize;
    b.iter(|| {
        // SAFETY: one thread, so no codelet runs concurrently with another.
        unsafe { plan.run_codelet(&view, stage * cps + idx) };
        idx = (idx + 1) % cps;
    });
}

fn bench_kernel_sizes(c: &mut Criterion) {
    let n = 1usize << 14;
    let input = signal(n);
    let mut group = c.benchmark_group("codelet_kernel");
    for radix_log2 in [3u32, 4, 5, 6, 7] {
        let key = PlanKey::with_radix(n, Version::Coarse, TwiddleLayout::Linear, radix_log2);
        let plan = Arc::new(Plan::build(key));
        let points = 1usize << radix_log2;
        let flops = 5 * points as u64 * u64::from(radix_log2);
        group.throughput(Throughput::Elements(flops));
        group.bench_with_input(
            BenchmarkId::new("scalar, one codelet", points),
            &radix_log2,
            |b, _| bench_stage(b, &plan, 1),
        );
        // Stages 0 and 1 are full at 2^14 for every radix here: `n / P`
        // codelets each.
        group.throughput(Throughput::Elements(flops * (n / points) as u64));
        let default = BackendSel::default().prepare(&plan);
        for stage in [0, 1] {
            group.bench_with_input(
                BenchmarkId::new(format!("default kernel, stage {stage}"), points),
                &radix_log2,
                |b, _| {
                    b.iter_batched(
                        || input.clone(),
                        |mut data| default.run_stage(&mut data, stage),
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

/// The plan looks twiddles up once at build time, so the layout changes
/// which values land in the per-codelet runs, not the shape of the tables
/// the hot path streams.
fn bench_twiddle_lookup_layouts(c: &mut Criterion) {
    let n = 1usize << 16;
    let mut group = c.benchmark_group("kernel_with_layout");
    for layout in [
        TwiddleLayout::Linear,
        TwiddleLayout::BitReversedHash,
        TwiddleLayout::MultiplicativeHash,
    ] {
        let plan = Plan::build(PlanKey::new(n, Version::Coarse, layout));
        group.bench_with_input(
            BenchmarkId::new("layout", format!("{layout:?}")),
            &layout,
            |b, _| bench_stage(b, &plan, 0),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_sizes, bench_twiddle_lookup_layouts);
criterion_main!(benches);
