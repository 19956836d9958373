//! Criterion: bit-reversal permutation — the "first step" of every
//! algorithm version, and the hash function of Sec. IV-B. Rows: the direct
//! loop, the stored swap list (serial and split across workers), and the
//! computed, cache-blocked permutation plans run (`bit_reverse_tiled`,
//! serial and on every core).
//!
//! ```text
//! cargo bench -p fft-repro --bench bitrev
//! ```

use codelet::runtime::Runtime;
use fgfft::bitrev::{
    apply_swaps, apply_swaps_parallel, bit_reverse, bit_reverse_permute, bit_reverse_swaps,
    bit_reverse_tiled,
};
use fgfft::Complex64;
use fgsupport::bench::{BenchmarkId, Criterion, Throughput};
use fgsupport::{criterion_group, criterion_main};

fn bench_permutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("bit_reversal_permute");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for n_log2 in [10u32, 14, 18, 20] {
        let n = 1usize << n_log2;
        group.throughput(Throughput::Elements(n as u64));
        let data: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let swaps = bit_reverse_swaps(n);
        group.bench_with_input(BenchmarkId::new("serial", n_log2), &n_log2, |b, _| {
            let mut work = data.clone();
            b.iter(|| bit_reverse_permute(&mut work));
        });
        group.bench_with_input(BenchmarkId::new("swap list", n_log2), &n_log2, |b, _| {
            let mut work = data.clone();
            b.iter(|| apply_swaps(&mut work, &swaps));
        });
        for workers in [1, cores] {
            let runtime = Runtime::with_workers(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("computed @ {workers}w"), n_log2),
                &n_log2,
                |b, _| {
                    let mut work = data.clone();
                    b.iter(|| bit_reverse_tiled(&mut work, &runtime));
                },
            );
        }
        for workers in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel{workers}"), n_log2),
                &n_log2,
                |b, _| {
                    let mut work = data.clone();
                    b.iter(|| apply_swaps_parallel(&mut work, &swaps, workers));
                },
            );
        }
    }
    group.finish();
}

fn bench_reverse_function(c: &mut Criterion) {
    c.bench_function("bit_reverse_fn_21bits", |b| {
        let mut x = 0usize;
        b.iter(|| {
            x = (x + 1) & ((1 << 21) - 1);
            fgsupport::bench::black_box(bit_reverse(x, 21))
        });
    });
}

criterion_group!(benches, bench_permutation, bench_reverse_function);
criterion_main!(benches);
