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
//! the scalar and SIMD kernels (AVX2 or the portable four-lane fallback)
//! drive the identical certified plan
//! tables through the one codelet runtime on any number of workers, and
//! the SIMD complex multiply deliberately avoids FMA so each lane rounds
//! exactly like the scalar code. Any bit of divergence is a kernel or
//! scheduling bug, not round-off.

use codelet::runtime::Runtime;
use fgfft::bitrev::bit_reverse_permute;
use fgfft::exec::shared::SharedData;
use fgfft::reference::recursive_fft;
use fgfft::{
    rms_error, Backend, BackendSel, Complex64, Fft, Fft2d, FftPlan, HostScalar, HostSimd, Plan,
    PlanKey, Planner, ScheduleTuning, SeedOrder, TransformKind, Version,
};
use std::collections::BTreeSet;
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

/// Every codelet of `plan` in stage order on the calling thread, through
/// [`Plan::run_codelet`], after the direct bit reversal: the
/// schedule-free oracle every lowering — the plan's computed permutation
/// included — must match bit for bit.
fn stage_order_oracle(plan: &Plan, input: &[Complex64]) -> Vec<(u64, u64)> {
    let mut data = input.to_vec();
    bit_reverse_permute(&mut data);
    {
        let view = SharedData::new(&mut data);
        for id in 0..plan.fft_plan().total_codelets() {
            // SAFETY: one thread, ids in stage order: every parent of `id`
            // has completed on this thread before it runs.
            unsafe { plan.run_codelet(&view, id) };
        }
    }
    bits(&data)
}

/// The kernel × worker-count rows every exactness case runs: the scalar
/// and simd kernels on 1, 2 and 4 runtime workers, plus
/// `simd-portable`, which forces the four-lane fallback even on AVX2
/// hosts so both vector code paths are pinned no matter where this runs.
fn kernel_rows() -> Vec<(String, Arc<dyn Backend>, Runtime)> {
    let mut rows = Vec::new();
    for name in ["scalar", "simd"] {
        for workers in [1usize, 2, 4] {
            rows.push((
                format!("{name} @ {workers}w"),
                BackendSel::parse(name).unwrap().build(),
                Runtime::with_workers(workers),
            ));
        }
    }
    let portable: Arc<dyn Backend> = Arc::new(HostSimd::portable());
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

/// Bits of `plan` run through its default kernel (the lane kernel) and
/// the portable form of it, single and as a batch of three copies, on
/// `runtime`: every row must equal `want`.
fn assert_lane_kernels_match(
    plan: &Arc<Plan>,
    input: &[Complex64],
    runtime: &Runtime,
    want: &[(u64, u64)],
    at: &str,
) {
    let portable: Arc<dyn Backend> = Arc::new(HostSimd::portable());
    for prepared in [BackendSel::default().prepare(plan), portable.prepare(plan)] {
        let kernel = prepared.backend_fingerprint();
        let mut data = input.to_vec();
        prepared.execute(&mut data, runtime);
        assert!(bits(&data) == want, "{at}: {kernel} drifts from the oracle");
        let mut copies = vec![input.to_vec(); 3];
        let mut views: Vec<&mut [Complex64]> =
            copies.iter_mut().map(|b| b.as_mut_slice()).collect();
        prepared.execute_batch(&mut views, runtime);
        for (i, copy) in copies.iter().enumerate() {
            assert!(bits(copy) == want, "{at}: {kernel} batch copy {i} drifts");
        }
    }
}

#[test]
fn tile_lowering_is_bit_exact_against_the_stage_order_oracle() {
    // Radix 6 at every tile size T = 2^min(6, n - 8) from 1 to 64, then
    // radix 3 and radix 7 with partial last stages of 2 to 32
    // sub-transforms per codelet, and radix 4 at N = 16 (one full-stage
    // codelet per tile: the lane kernel's lone sub-transform). Every
    // shape runs on the scalar reference and on the lane kernel (native
    // and portable, single and batched, on 1 and 2 workers).
    let shapes = [
        (7u32, 6u32),
        (8, 6),
        (9, 6),
        (10, 6),
        (11, 6),
        (12, 6),
        (13, 6),
        (14, 6),
        (13, 3),
        (11, 3),
        (12, 7),
        (13, 7),
        (16, 7),
        (4, 2),
        (5, 2),
    ];
    let mut versions = Version::paper_set(SeedOrder::Natural).to_vec();
    versions.extend([
        Version::Fine(SeedOrder::Reversed),
        Version::Fine(SeedOrder::EvenOdd),
        Version::FineHash(SeedOrder::Random(7)),
    ]);
    let runtimes = [1usize, 2, 4].map(Runtime::with_workers);
    let mut tile_sizes = BTreeSet::new();
    for (n_log2, radix_log2) in shapes {
        let n = 1usize << n_log2;
        let input = signal(n);
        let fft = FftPlan::new(n_log2, radix_log2);
        let reversed = ScheduleTuning {
            pool_order: Some((0..fft.codelets_per_stage()).rev().collect()),
            ..ScheduleTuning::identity()
        };
        let mut variants: Vec<(Version, Option<ScheduleTuning>)> = versions
            .iter()
            .flat_map(|&v| [(v, None), (v, Some(reversed.clone()))])
            .collect();
        if fft.stages() >= 3 {
            let paper = fft.stages() - 3;
            let moved = ScheduleTuning {
                last_early: Some(if paper > 0 { 0 } else { 1 }),
                ..ScheduleTuning::identity()
            };
            variants.push((Version::FineGuided, Some(moved)));
        }
        for (version, tuning) in variants {
            let key = PlanKey::with_radix(n, version, version.layout(), radix_log2);
            let plan = Plan::build_tuned(key, tuning.as_ref());
            tile_sizes.insert(plan.tiles().tile_len());
            let want = stage_order_oracle(&plan, &input);
            let plan = Arc::new(plan);
            for runtime in &runtimes {
                let mut data = input.clone();
                let stats = plan.execute(&mut data, runtime);
                assert_eq!(stats.codelets, fft.total_codelets() as u64);
                let at = format!(
                    "{} {tuning:?} N=2^{n_log2} radix 2^{radix_log2} @ {}w",
                    version.name(),
                    runtime.workers()
                );
                assert!(
                    bits(&data) == want,
                    "{at}: bitwise drift from the stage-order oracle"
                );
                // The lane kernel's bits do not depend on the schedule (the
                // cases above pin that); one pass per version and shape
                // on 1 and 2 workers keeps the debug suite short.
                if tuning.is_none() && runtime.workers() <= 2 {
                    assert_lane_kernels_match(&plan, &input, runtime, &want, &at);
                }
            }
        }
    }
    for t in [1, 2, 4, 8, 16, 32, 64] {
        assert!(
            tile_sizes.contains(&t),
            "tile size {t} not covered: {tile_sizes:?}"
        );
    }
}

/// The output digest every plan below must reproduce, folded in case
/// order. It was computed from the expanded per-butterfly twiddle tables
/// that preceded twiddle classes, so it is an oracle independent of every
/// current table reader: a bit change shared by all of them (the kernels,
/// `run_codelet` and the recorder) still moves this number.
const PINNED_OUTPUT_DIGEST: u64 = 4404110917358684929;

#[test]
fn outputs_match_the_pinned_digest() {
    use fgfft::cert::Digest;
    use fgfft::TwiddleLayout;
    let layouts = [
        TwiddleLayout::Linear,
        TwiddleLayout::BitReversedHash,
        TwiddleLayout::MultiplicativeHash,
    ];
    // Per radix: sizes with a partial last stage where the radix allows one.
    let c2c_sizes: [(u32, &[u32]); 4] = [(1, &[1, 6]), (3, &[7, 8]), (6, &[8, 13]), (7, &[9, 12])];
    let mut cases: Vec<(TransformKind, u32, u32)> = Vec::new();
    for (radix_log2, sizes) in c2c_sizes {
        cases.extend(sizes.iter().map(|&n| (TransformKind::C2C, n, radix_log2)));
        for n_log2 in [4u32, 11] {
            cases.push((TransformKind::R2C, n_log2, radix_log2));
            cases.push((TransformKind::C2R, n_log2, radix_log2));
        }
        for (rows_log2, cols_log2) in [(3u32, 4u32), (5, 6)] {
            let kind = TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            };
            cases.push((kind, rows_log2 + cols_log2, radix_log2));
        }
    }
    // Four rows per case, as the digest was pinned with: the scalar
    // reference, the vector kernel twice (the digest predates its single
    // pass split, when two fusion radices each had a row) and the portable
    // kernel.
    let backends: Vec<Arc<dyn Backend>> = vec![
        BackendSel::SCALAR.build(),
        BackendSel::SIMD.build(),
        BackendSel::SIMD.build(),
        Arc::new(HostSimd::portable()),
    ];
    let runtimes = [1usize, 2].map(Runtime::with_workers);
    let mut digest = Digest::new();
    for (kind, n_log2, radix_log2) in cases {
        for version in Version::paper_set(SeedOrder::Natural) {
            for layout in layouts {
                let key = PlanKey::with_kind(kind, 1usize << n_log2, version, layout, radix_log2);
                let plan = Arc::new(Plan::build(key));
                let input = signal(plan.buffer_len());
                for backend in &backends {
                    let prepared = backend.prepare(&plan);
                    for runtime in &runtimes {
                        let mut data = input.clone();
                        prepared.execute(&mut data, runtime);
                        digest.write_complex_slice(&data);
                    }
                }
            }
        }
    }
    assert_eq!(
        digest.finish(),
        PINNED_OUTPUT_DIGEST,
        "plan outputs drifted from the pinned bits"
    );
}

/// `plan` run on `workers` workers through a `HostScalar` preparation: the
/// reference every library default is held to.
fn scalar_reference(key: PlanKey, input: &[Complex64], workers: usize) -> Vec<Complex64> {
    let mut data = input.to_vec();
    HostScalar
        .prepare(&Arc::new(Plan::build(key)))
        .execute(&mut data, &Runtime::with_workers(workers));
    data
}

/// The library entry points and a service with neither a configured
/// backend nor wisdom run the host's default kernel (the vector kernel;
/// with `FGFFT_SIMD=portable` its portable form). Each must give exactly
/// the bits of the scalar reference.
#[test]
fn library_defaults_are_bit_exact_with_the_scalar_reference() {
    let version = Version::FineGuided;
    let c2c = |n: usize| PlanKey::new(n, version, version.layout());
    let kind_key = |kind, n: usize| PlanKey::with_kind(kind, n, version, version.layout(), 6);
    for n_log2 in [8u32, 11, 12, 16] {
        let n = 1usize << n_log2;
        let input = signal(n);
        for workers in [1usize, 2] {
            let at = format!("N=2^{n_log2} @ {workers}w");
            let engine = Fft::new()
                .with_workers(workers)
                .with_planner(Arc::new(Planner::new()));

            let mut got = input.clone();
            engine.forward(&mut got);
            let want = scalar_reference(c2c(n), &input, workers);
            assert!(bits(&got) == bits(&want), "Fft::forward {at}");

            let mut got = input.clone();
            engine.inverse(&mut got);
            let conj: Vec<Complex64> = input.iter().map(|v| v.conj()).collect();
            let want: Vec<Complex64> = scalar_reference(c2c(n), &conj, workers)
                .iter()
                .map(|v| v.conj().scale(1.0 / n as f64))
                .collect();
            assert!(bits(&got) == bits(&want), "Fft::inverse {at}");

            // rfft packs even samples into .re and odd into .im of an
            // N/2-point buffer and unpacks the halfcomplex result.
            let real: Vec<f64> = input.iter().map(|v| v.re).collect();
            let got = fgfft::rfft::rfft_with(&real, &engine);
            let packed: Vec<Complex64> = real
                .chunks_exact(2)
                .map(|p| Complex64::new(p[0], p[1]))
                .collect();
            let out = scalar_reference(kind_key(TransformKind::R2C, n), &packed, workers);
            let mut want = vec![Complex64::new(out[0].re, 0.0)];
            want.extend_from_slice(&out[1..]);
            want.push(Complex64::new(out[0].im, 0.0));
            assert!(bits(&got) == bits(&want), "rfft {at}");

            let got = fgfft::rfft::irfft_with(&want, &engine);
            let half = n / 2;
            let mut packed = vec![Complex64::new(want[0].re, want[half].re)];
            packed.extend_from_slice(&want[1..half]);
            let out = scalar_reference(kind_key(TransformKind::C2R, n), &packed, workers);
            let want: Vec<f64> = out.iter().flat_map(|z| [z.re, z.im]).collect();
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "irfft {at}");

            let (rows_log2, cols_log2) = (n_log2 / 2, n_log2 - n_log2 / 2);
            let planar = TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            };
            let mut got = input.clone();
            Fft2d::with_workers(1 << rows_log2, 1 << cols_log2, workers).forward(&mut got);
            let want = scalar_reference(kind_key(planar, n), &input, workers);
            assert!(bits(&got) == bits(&want), "Fft2d {at}");

            // The lane kernel's shapes through the kinds: radix 3, 6 and 7
            // (partial last stages of 2..32 sub-transforms per codelet on
            // the inner and column plans), batches of two copies. Up to
            // 2^12 points: the shapes repeat beyond it.
            for radix_log2 in [3u32, 6, 7].into_iter().filter(|_| n_log2 <= 12) {
                let square = TransformKind::C2C2D {
                    rows_log2,
                    cols_log2,
                };
                for kind in [TransformKind::R2C, TransformKind::C2R, square] {
                    let key = PlanKey::with_kind(kind, n, version, version.layout(), radix_log2);
                    let plan = Arc::new(Plan::build(key));
                    let input = signal(plan.buffer_len());
                    let want = bits(&scalar_reference(key, &input, workers));
                    let mut copies = vec![input.clone(); 2];
                    let mut views: Vec<&mut [Complex64]> =
                        copies.iter_mut().map(|b| b.as_mut_slice()).collect();
                    BackendSel::default()
                        .prepare(&plan)
                        .execute_batch(&mut views, &Runtime::with_workers(workers));
                    for copy in &copies {
                        assert!(bits(copy) == want, "{kind:?} radix 2^{radix_log2} {at}");
                    }
                }
            }

            let service = fgserve::FftService::start(fgserve::ServeConfig {
                workers,
                wisdom_path: None,
                ..fgserve::ServeConfig::default()
            });
            let ticket = service
                .submit(fgserve::Request::new(input.clone()))
                .expect("admitted");
            let got = ticket.wait().expect("served").buffer.to_vec();
            service.shutdown();
            let want = scalar_reference(c2c(n), &input, workers);
            assert!(bits(&got) == bits(&want), "FftService {at}");
        }
    }
}
