//! End-to-end numerical correctness of every version's plan against the
//! reference oracles, across sizes, radices, worker counts, and versions.

use codelet::runtime::Runtime;
use fgfft::reference::{naive_dft, recursive_fft};
use fgfft::{rms_error, Complex64, Fft, Plan, PlanKey, SeedOrder, Version};

/// One forward transform through a freshly built plan.
fn transform(data: &mut [Complex64], version: Version, radix_log2: u32, workers: usize) {
    let key = PlanKey::with_radix(data.len(), version, version.layout(), radix_log2);
    Plan::build(key).execute(data, &Runtime::with_workers(workers));
}

fn signal(n: usize, phase: f64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            Complex64::new(
                (i as f64 * 0.37 + phase).sin(),
                (i as f64 * 0.101 - phase).cos() * 0.7,
            )
        })
        .collect()
}

fn all_versions() -> Vec<Version> {
    vec![
        Version::Coarse,
        Version::CoarseHash,
        Version::Fine(SeedOrder::Natural),
        Version::Fine(SeedOrder::Reversed),
        Version::Fine(SeedOrder::EvenOdd),
        Version::Fine(SeedOrder::Random(3)),
        Version::FineHash(SeedOrder::Natural),
        Version::FineGuided,
    ]
}

#[test]
fn all_versions_match_dft_small() {
    let n = 256;
    let input = signal(n, 0.0);
    let expect = naive_dft(&input);
    for version in all_versions() {
        let mut data = input.clone();
        transform(&mut data, version, 6, 3);
        let err = rms_error(&data, &expect);
        assert!(err < 1e-9, "{}: rms {err}", version.name());
    }
}

#[test]
fn all_versions_match_recursive_fft_large() {
    // 2^16 with radix 64 → 3 stages (guided path has a real split).
    let n = 1 << 16;
    let input = signal(n, 1.5);
    let expect = recursive_fft(&input);
    for version in all_versions() {
        let mut data = input.clone();
        transform(&mut data, version, 6, 8);
        let err = rms_error(&data, &expect);
        assert!(err < 1e-8, "{}: rms {err}", version.name());
    }
}

#[test]
fn worker_counts_do_not_change_results() {
    let n = 1 << 13;
    let input = signal(n, 0.3);
    let mut reference = input.clone();
    transform(&mut reference, Version::Fine(SeedOrder::Natural), 6, 1);
    for workers in [2, 3, 5, 8, 16] {
        for version in [Version::Fine(SeedOrder::Natural), Version::FineGuided] {
            let mut data = input.clone();
            transform(&mut data, version, 6, workers);
            assert_eq!(
                data,
                reference,
                "{} with {workers} workers diverged bitwise",
                version.name()
            );
        }
    }
}

#[test]
fn every_radix_agrees_with_every_version() {
    let n = 1 << 12;
    let input = signal(n, 2.1);
    let expect = recursive_fft(&input);
    for radix_log2 in [2u32, 4, 6, 7] {
        for version in [
            Version::Coarse,
            Version::Fine(SeedOrder::Natural),
            Version::FineGuided,
        ] {
            let mut data = input.clone();
            transform(&mut data, version, radix_log2, 4);
            let err = rms_error(&data, &expect);
            assert!(
                err < 1e-9,
                "{} radix 2^{radix_log2}: rms {err}",
                version.name()
            );
        }
    }
}

#[test]
fn forward_inverse_roundtrip_many_sizes() {
    for n_log2 in [1u32, 2, 5, 8, 11, 14] {
        let n = 1usize << n_log2;
        let input = signal(n, 0.9);
        let engine = Fft::new().with_workers(4);
        let mut data = input.clone();
        engine.forward(&mut data);
        engine.inverse(&mut data);
        let err = rms_error(&data, &input);
        assert!(err < 1e-11, "n=2^{n_log2}: roundtrip rms {err}");
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let n = 1 << 14;
    let input = signal(n, 0.5);
    let engine = Fft::new().with_workers(8);
    let mut a = input.clone();
    engine.forward(&mut a);
    for _ in 0..3 {
        let mut b = input.clone();
        engine.forward(&mut b);
        assert_eq!(a, b, "nondeterministic result");
    }
}

#[test]
fn known_transform_pairs() {
    // Constant → impulse.
    let n = 1024;
    let mut data = vec![Complex64::ONE; n];
    fgfft::forward(&mut data);
    assert!(data[0].dist(Complex64::new(n as f64, 0.0)) < 1e-9);
    assert!(data[1..].iter().all(|v| v.abs() < 1e-9));

    // Single tone → single bin.
    let k0 = 77;
    let mut data: Vec<Complex64> = (0..n)
        .map(|j| Complex64::expi(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
        .collect();
    fgfft::forward(&mut data);
    assert!(data[k0].dist(Complex64::new(n as f64, 0.0)) < 1e-8);
    let leak: f64 = data
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != k0)
        .map(|(_, v)| v.abs())
        .fold(0.0, f64::max);
    assert!(leak < 1e-8, "spectral leakage {leak}");
}

#[test]
fn conjugate_symmetry_for_real_input() {
    let n = 512;
    let mut data: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.21).sin(), 0.0))
        .collect();
    fgfft::forward(&mut data);
    for k in 1..n / 2 {
        assert!(
            data[k].dist(data[n - k].conj()) < 1e-9,
            "X[{k}] != conj(X[{}])",
            n - k
        );
    }
}
