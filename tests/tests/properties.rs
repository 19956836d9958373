//! Randomized property tests: transform identities over random inputs, and
//! structural invariants of random FFT plans. Inputs are drawn from a
//! seeded PRNG so every run checks the same cases deterministically.

use codelet::runtime::Runtime;
use fgfft::plan::FftPlan;
use fgfft::reference::{energy, recursive_fft};
use fgfft::{rms_error, Complex64, Plan, PlanKey, SeedOrder, TwiddleLayout, Version};
use fgsupport::rng::Rng64;

fn complex_vec(rng: &mut Rng64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range_f64(-1.0..1.0), rng.gen_range_f64(-1.0..1.0)))
        .collect()
}

fn fft(data: &[Complex64]) -> Vec<Complex64> {
    let mut out = data.to_vec();
    let key = PlanKey::new(
        out.len(),
        Version::Fine(SeedOrder::Natural),
        TwiddleLayout::Linear,
    );
    Plan::build(key).execute(&mut out, &Runtime::with_workers(4));
    out
}

/// FFT(x) matches the recursive reference on random inputs.
#[test]
fn matches_reference() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(100 + case);
        let data = complex_vec(&mut rng, 512);
        let expect = recursive_fft(&data);
        let got = fft(&data);
        assert!(rms_error(&got, &expect) < 1e-9, "case {case}");
    }
}

/// Linearity: FFT(a·x + y) = a·FFT(x) + FFT(y).
#[test]
fn linearity() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(200 + case);
        let x = complex_vec(&mut rng, 256);
        let y = complex_vec(&mut rng, 256);
        let a = Complex64::new(rng.gen_range_f64(-2.0..2.0), rng.gen_range_f64(-2.0..2.0));
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(&u, &v)| a * u + v).collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(&u, &v)| a * u + v).collect();
        assert!(rms_error(&lhs, &rhs) < 1e-9, "case {case}");
    }
}

/// Parseval: ‖X‖² = N·‖x‖².
#[test]
fn parseval() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(300 + case);
        let data = complex_vec(&mut rng, 1024);
        let freq = fft(&data);
        let lhs = energy(&freq);
        let rhs = energy(&data) * 1024.0;
        assert!((lhs - rhs).abs() <= 1e-6 * rhs.max(1.0), "case {case}");
    }
}

/// Circular time shift ↔ linear phase: FFT(shift(x, s))[k] = X[k]·e^{-2πiks/N}.
#[test]
fn shift_theorem() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(400 + case);
        let data = complex_vec(&mut rng, 256);
        let s = rng.gen_range(0..256);
        let n = data.len();
        let shifted: Vec<Complex64> = (0..n).map(|i| data[(i + s) % n]).collect();
        let fs = fft(&shifted);
        let fx = fft(&data);
        let expect: Vec<Complex64> = fx
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                v * Complex64::expi(2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64)
            })
            .collect();
        assert!(rms_error(&fs, &expect) < 1e-9, "case {case} shift {s}");
    }
}

/// Convolution theorem through the public API.
#[test]
fn convolution_theorem() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(500 + case);
        let a = complex_vec(&mut rng, 48);
        let b = complex_vec(&mut rng, 17);
        let fast = fgfft::convolve(&a, &b);
        let mut direct = vec![Complex64::ZERO; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                direct[i + j] += x * y;
            }
        }
        assert!(rms_error(&fast, &direct) < 1e-9, "case {case}");
    }
}

/// Inverse really inverts, for arbitrary sizes and versions.
#[test]
fn roundtrip() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(600 + case);
        let data = complex_vec(&mut rng, 128);
        let version = if rng.gen_bool() {
            Version::FineGuided
        } else {
            Version::CoarseHash
        };
        let engine = fgfft::Fft::new().with_version(version).with_workers(2);
        let mut v = data.clone();
        engine.forward(&mut v);
        engine.inverse(&mut v);
        assert!(rms_error(&v, &data) < 1e-11, "case {case} {version:?}");
    }
}

/// Plan invariants for random (size, radix) combinations: stages cover
/// all levels, every stage partitions the elements, and the
/// parent/child relations are mutually consistent.
#[test]
#[allow(clippy::needless_range_loop)]
fn plan_invariants() {
    let mut rng = Rng64::seed_from_u64(7001);
    for case in 0..32 {
        let n_log2 = rng.gen_range(2..12) as u32;
        let radix_log2 = rng.gen_range(1..7) as u32;
        let plan = FftPlan::new(n_log2, radix_log2);
        let p = plan.radix_log2();

        // Levels add up to log2 N.
        let total_levels: u32 = (0..plan.stages()).map(|s| plan.levels(s)).sum();
        assert_eq!(total_levels, n_log2, "case {case}");

        // Each stage partitions the element set and owner() agrees.
        for stage in 0..plan.stages() {
            let mut seen = vec![false; plan.n()];
            for idx in 0..plan.codelets_per_stage() {
                plan.for_each_element(stage, idx, |_, e| {
                    assert!(!seen[e]);
                    seen[e] = true;
                    assert_eq!(plan.owner(stage, e), idx);
                });
            }
            assert!(seen.iter().all(|&s| s), "case {case}");
        }

        // Children counts and dependence counts are duals.
        let cps = plan.codelets_per_stage();
        for stage in 0..plan.stages() - 1 {
            let mut dep = vec![0u32; cps];
            let mut kids = Vec::new();
            for idx in 0..cps {
                kids.clear();
                plan.children_of(stage, idx, &mut kids);
                // No duplicate children.
                for w in kids.windows(2) {
                    assert!(w[0] < w[1]);
                }
                for &k in &kids {
                    dep[k - (stage + 1) * cps] += 1;
                }
            }
            for idx in 0..cps {
                assert_eq!(dep[idx], plan.parent_count(stage + 1, idx));
            }
        }

        // Full stages have exactly P parents.
        for stage in 1..plan.stages() {
            if plan.is_full_stage(stage) {
                assert_eq!(plan.parent_count(stage, 0), 1u32 << p);
            }
        }
    }
}

/// Grouped orders (plain and bank-rotated) are permutations, and every
/// run shares its children.
#[test]
fn grouped_orders_are_sound() {
    let mut rng = Rng64::seed_from_u64(7002);
    let mut checked = 0;
    while checked < 24 {
        let n_log2 = rng.gen_range(4..12) as u32;
        let radix_log2 = rng.gen_range(2..5) as u32;
        let plan = FftPlan::new(n_log2, radix_log2);
        if plan.stages() < 2 {
            continue;
        }
        checked += 1;
        for stage in 0..plan.stages() - 1 {
            for order in [
                plan.grouped_stage_order(stage),
                plan.grouped_stage_order_bank_rotated(stage),
            ] {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..plan.codelets_per_stage()).collect::<Vec<_>>());
            }
            let order = plan.grouped_stage_order(stage);
            let run = plan.grouped_run_len(stage);
            let mut kids_a = Vec::new();
            let mut kids_b = Vec::new();
            for chunk in order.chunks(run) {
                kids_a.clear();
                plan.children_of(stage, chunk[0], &mut kids_a);
                for &idx in &chunk[1..] {
                    kids_b.clear();
                    plan.children_of(stage, idx, &mut kids_b);
                    assert_eq!(kids_a, kids_b);
                }
            }
        }
    }
}

/// Seed orders are permutations for any count.
#[test]
fn seed_orders_are_permutations() {
    let mut rng = Rng64::seed_from_u64(7003);
    for _ in 0..48 {
        let count = rng.gen_range(0..300);
        let seed = rng.gen_u64() % 1000;
        for order in [
            SeedOrder::Natural,
            SeedOrder::Reversed,
            SeedOrder::EvenOdd,
            SeedOrder::Random(seed),
        ] {
            let v = order.order(count);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..count).collect::<Vec<_>>());
        }
    }
}

/// `irfft ∘ rfft` is the identity on random real signals: the packed
/// half-size plan pipeline (r2c untangle, then c2r tangle + finalize)
/// reconstructs every sample to near machine precision.
#[test]
fn real_roundtrip() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(700 + case);
        for n in [16usize, 256, 2048] {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
            let back = fgfft::irfft(&fgfft::rfft(&x));
            assert_eq!(back.len(), n, "case {case} n={n}");
            let worst = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(worst < 1e-12, "case {case} n={n}: max err {worst}");
        }
    }
}

/// Parseval for the real transform: the nonredundant half spectrum carries
/// the signal's whole energy once the conjugate-symmetric interior bins are
/// double-counted.
#[test]
fn real_parseval() {
    let n = 1024usize;
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(800 + case);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
        let spec = fgfft::rfft(&x);
        let sq = |v: &Complex64| v.re * v.re + v.im * v.im;
        let mut lhs = sq(&spec[0]) + sq(&spec[n / 2]);
        for v in &spec[1..n / 2] {
            lhs += 2.0 * sq(v);
        }
        let rhs = n as f64 * x.iter().map(|&s| s * s).sum::<f64>();
        assert!((lhs - rhs).abs() <= 1e-6 * rhs.max(1.0), "case {case}");
    }
}

/// The composite 2D plan (row wave → blocked transpose → column wave →
/// transpose back) is *bitwise* the nested formulation with explicit 1D
/// FFTs and plain transposes: the lowering reorders data movement, never
/// arithmetic.
#[test]
fn fft2d_matches_nested_rows_and_cols() {
    use fgfft::fft2d::transpose;
    use fgfft::{Fft, Fft2d};
    for (rows, cols) in [(16usize, 16usize), (8, 64)] {
        let mut rng = Rng64::seed_from_u64(900 + rows as u64);
        let data = complex_vec(&mut rng, rows * cols);
        let mut got = data.clone();
        Fft2d::new(rows, cols).forward(&mut got);

        let engine = Fft::new();
        let mut nested = data.clone();
        for row in nested.chunks_exact_mut(cols) {
            engine.forward(row);
        }
        let mut t = vec![Complex64::ZERO; rows * cols];
        transpose(&nested, &mut t, rows, cols);
        for col in t.chunks_exact_mut(rows) {
            engine.forward(col);
        }
        transpose(&t, &mut nested, cols, rows);
        for (i, (a, b)) in got.iter().zip(&nested).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{rows}x{cols} element {i}: {a:?} != {b:?}"
            );
        }
    }
}
