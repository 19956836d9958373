//! Cross-version bit-exactness: the five Table-I versions are *schedules*
//! of one and the same arithmetic. Every codelet reads its inputs only
//! after its parents complete and performs a fixed butterfly sequence with
//! fixed twiddle values, so the result must be bitwise identical across
//! versions and across worker counts — any divergence means a schedule
//! reordered arithmetic it had no right to touch. The shared result must
//! also agree with the recursive-FFT oracle to an accuracy that scales
//! with N.
//!
//! The same argument extends to execution *backends* and worker counts:
//! the scalar and SIMD kernels (AVX2 or the portable four-lane fallback,
//! radix-4 or radix-8 register fusion) drive the identical certified plan
//! tables through the one codelet runtime on any number of workers, and
//! the SIMD complex multiply deliberately avoids FMA so each lane rounds
//! exactly like the scalar code. Any bit of divergence is a kernel or
//! scheduling bug, not round-off.

use codelet::runtime::Runtime;
use fgfft::reference::recursive_fft;
use fgfft::{
    rms_error, Backend, BackendSel, Complex64, HostSimd, Plan, PlanKey, SeedOrder, Version,
};
use std::sync::Arc;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Complex64::new(
                (t * 0.613).sin() - 0.3 * (t * 0.047).cos(),
                (t * 0.291).cos(),
            )
        })
        .collect()
}

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// The kernel × worker-count rows every exactness case runs: the scalar,
/// simd-r4 and simd-r8 kernels on 1, 2 and 4 runtime workers, plus
/// `simd-portable`, which forces the four-lane fallback even on AVX2
/// hosts so both vector code paths are pinned no matter where this runs.
fn kernel_rows() -> Vec<(String, Arc<dyn Backend>, Runtime)> {
    let mut rows = Vec::new();
    for name in ["scalar", "simd-r4", "simd-r8"] {
        for workers in [1usize, 2, 4] {
            rows.push((
                format!("{name} @ {workers}w"),
                BackendSel::parse(name).unwrap().build(),
                Runtime::with_workers(workers),
            ));
        }
    }
    let portable: Arc<dyn Backend> = Arc::new(HostSimd::portable(3));
    rows.push((
        "simd-portable @ 4w".into(),
        portable,
        Runtime::with_workers(4),
    ));
    rows
}

#[test]
fn backends_are_bit_exact_across_versions_sizes_and_batches() {
    // Every kernel × worker count × every Table-I version × three sizes ×
    // two batch shapes, all compared bitwise against the plan's own scalar
    // path on a single buffer.
    let rows = kernel_rows();
    let runtime = Runtime::with_workers(4);
    for n_log2 in [8u32, 12, 16] {
        let n = 1usize << n_log2;
        let input = signal(n);
        for version in Version::paper_set(SeedOrder::Natural) {
            let plan = Arc::new(Plan::build(PlanKey::new(n, version, version.layout())));
            let mut want = input.clone();
            plan.execute(&mut want, &runtime);
            let want = bits(&want);
            for (name, backend, workers) in &rows {
                let prepared = backend.prepare(&plan);
                for batch in [1usize, 4] {
                    let mut buffers = vec![input.clone(); batch];
                    let mut views: Vec<&mut [Complex64]> =
                        buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
                    prepared.execute_batch(&mut views, workers);
                    for (i, buffer) in buffers.iter().enumerate() {
                        assert!(
                            bits(buffer) == want,
                            "{name} {} N=2^{n_log2} batch {batch} buffer {i}: bitwise drift",
                            version.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn threaded_stage_barrier_smoke() {
    // Churn the runtime's cross-codelet handoff under contention: four
    // workers (the caller plus three spawned), batched buffers, repeated
    // dispatches of the phased (coarse) and dataflow (fine-guided)
    // schedules. The point is less the (also checked) bits than the memory
    // orderings — CI runs this test under ThreadSanitizer.
    let n = 1usize << 8;
    let runtime = Runtime::with_workers(4);
    let input = signal(n);
    for version in [Version::Coarse, Version::FineGuided] {
        let plan = Arc::new(Plan::build(PlanKey::new(n, version, version.layout())));
        let prepared = BackendSel::SIMD.build().prepare(&plan);
        let mut want = input.clone();
        plan.execute(&mut want, &Runtime::with_workers(1));
        let want = bits(&want);
        for _ in 0..16 {
            let mut buffers = vec![input.clone(); 3];
            let mut views: Vec<&mut [Complex64]> =
                buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
            prepared.execute_batch(&mut views, &runtime);
            for buffer in &buffers {
                assert!(
                    bits(buffer) == want,
                    "{} dispatch smoke: bitwise drift",
                    version.name()
                );
            }
        }
    }
}

#[test]
fn paper_versions_are_bit_exact_across_workers() {
    for n_log2 in [12u32, 18] {
        let n = 1usize << n_log2;
        let input = signal(n);
        let oracle = recursive_fft(&input);
        let mut baseline: Option<Vec<(u64, u64)>> = None;
        for version in Version::paper_set(SeedOrder::Natural) {
            let plan = Plan::build(PlanKey::new(n, version, version.layout()));
            for workers in [1usize, 2, 8] {
                let mut data = input.clone();
                plan.execute(&mut data, &Runtime::with_workers(workers));
                let err = rms_error(&data, &oracle);
                // Round-off grows like sqrt(log N); 1e-12·n is far above
                // that but far below any algorithmic error.
                assert!(
                    err < 1e-12 * n as f64,
                    "{} @ {workers}w, N=2^{n_log2}: rms {err}",
                    version.name()
                );
                let got = bits(&data);
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => assert_eq!(
                        &got,
                        want,
                        "{} @ {workers}w, N=2^{n_log2}: bitwise drift from baseline",
                        version.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn backends_are_bit_exact_for_composite_kinds() {
    // The composite kinds (r2c/c2r untangle stages, 2D transposes) wrap
    // the same certified inner wave every backend drives, so the bitwise
    // argument extends unchanged: every kernel × worker count × R2C and 2D
    // × two sizes × two batch shapes against the plan's own scalar path.
    use fgfft::TransformKind;
    let rows = kernel_rows();
    let cases = [
        (TransformKind::R2C, 10u32),
        (TransformKind::R2C, 14),
        (
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 5,
            },
            10,
        ),
        (
            TransformKind::C2C2D {
                rows_log2: 7,
                cols_log2: 7,
            },
            14,
        ),
    ];
    let runtime = Runtime::with_workers(4);
    for (kind, n_log2) in cases {
        for version in Version::paper_set(SeedOrder::Natural) {
            let plan = Arc::new(Plan::build(PlanKey::with_kind(
                kind,
                1usize << n_log2,
                version,
                version.layout(),
                6,
            )));
            let input = signal(plan.buffer_len());
            let mut want = input.clone();
            plan.execute(&mut want, &runtime);
            let want = bits(&want);
            for (name, backend, workers) in &rows {
                let prepared = backend.prepare(&plan);
                for batch in [1usize, 3] {
                    let mut buffers = vec![input.clone(); batch];
                    let mut views: Vec<&mut [Complex64]> =
                        buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
                    prepared.execute_batch(&mut views, workers);
                    for (i, buffer) in buffers.iter().enumerate() {
                        assert!(
                            bits(buffer) == want,
                            "{name} {} {kind:?} N=2^{n_log2} batch {batch} buffer {i}: \
                             bitwise drift",
                            version.name()
                        );
                    }
                }
            }
        }
    }
}
