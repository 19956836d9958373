//! Criterion: the high-level transform surfaces — real-input FFT vs
//! promoting to complex, and the 2-D FFT.

use fgfft::{Complex64, Fft2d};
use fgsupport::bench::{BenchmarkId, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};

fn bench_rfft_vs_complex(c: &mut Criterion) {
    let n = 1usize << 16;
    let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut group = c.benchmark_group("real_fft");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("rfft (packed N/2)", |b| {
        b.iter(|| fgfft::rfft(&signal));
    });
    group.bench_function("complex promote", |b| {
        b.iter(|| {
            let mut data: Vec<Complex64> = signal.iter().map(|&x| Complex64::new(x, 0.0)).collect();
            fgfft::forward(&mut data);
            data
        });
    });
    group.finish();
}

fn bench_fft2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2d");
    group.sample_size(15);
    for (rows, cols) in [(128usize, 128usize), (256, 512)] {
        let engine = Fft2d::new(rows, cols);
        let image: Vec<Complex64> = (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        group.throughput(Throughput::Elements((rows * cols) as u64));
        group.bench_with_input(
            BenchmarkId::new("forward", format!("{rows}x{cols}")),
            &(),
            |b, _| {
                b.iter_batched(
                    || image.clone(),
                    |mut img| engine.forward(&mut img),
                    fgsupport::bench::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rfft_vs_complex, bench_fft2d);
criterion_main!(benches);
