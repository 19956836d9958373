//! Criterion: one codelet across work-unit sizes — the host-side companion
//! of Fig. 7's codelet-size study — run exactly as production runs it:
//! through [`Plan::run_codelet`] over the plan's flattened tables.

use fgfft::exec::shared::SharedData;
use fgfft::{Complex64, Plan, PlanKey, TwiddleLayout, Version};
use fgsupport::bench::{BenchmarkId, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};

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
    let mut group = c.benchmark_group("codelet_kernel");
    for radix_log2 in [3u32, 4, 5, 6, 7] {
        let key = PlanKey::with_radix(n, Version::Coarse, TwiddleLayout::Linear, radix_log2);
        let plan = Plan::build(key);
        // Flops per codelet: 5 * P * p.
        group.throughput(Throughput::Elements(
            5 * (1u64 << radix_log2) * radix_log2 as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("points", 1usize << radix_log2),
            &radix_log2,
            |b, _| bench_stage(b, &plan, 1),
        );
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
