//! Real-input FFT via the packing trick: an `N`-point real sequence is
//! transformed with one `N/2`-point complex FFT plus an O(N) untangling
//! pass — half the work and half the memory traffic of the naive
//! promote-to-complex route, which matters doubly on a machine whose
//! bottleneck is off-chip bandwidth.
//!
//! These functions are thin veneers over the plan pipeline: the packed
//! transform and the untangling stage are a [`TransformKind::R2C`] /
//! [`TransformKind::C2R`] plan resolved through the engine's planner, so
//! the untangle twiddles are precomputed once per plan (not per call), the
//! stage runs as footprinted codelet tasks visible to `fgcheck` and the
//! bank simulator, and repeated calls of one size reuse a cached plan.
//!
//! [`TransformKind::R2C`]: crate::workload::TransformKind::R2C
//! [`TransformKind::C2R`]: crate::workload::TransformKind::C2R

use crate::api::Fft;
use crate::complex::Complex64;
use crate::workload::TransformKind;

/// Forward FFT of a real sequence. `signal.len()` must be an even power of
/// two ≥ 4. Returns the `N/2 + 1` nonredundant spectrum bins `X[0..=N/2]`
/// (the rest follow from conjugate symmetry `X[N−k] = conj(X[k])`).
///
/// ```
/// let signal = vec![1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0];
/// let spectrum = fgfft::rfft(&signal); // tone at the half-Nyquist bin
/// assert_eq!(spectrum.len(), 5);
/// assert!((spectrum[2].re - 4.0).abs() < 1e-12);
/// ```
pub fn rfft(signal: &[f64]) -> Vec<Complex64> {
    rfft_with(signal, &Fft::new())
}

/// As [`rfft`] with an explicit engine (version/workers/radix control).
pub fn rfft_with(signal: &[f64], engine: &Fft) -> Vec<Complex64> {
    let n = signal.len();
    assert!(
        n >= 4 && n.is_power_of_two(),
        "length must be a power of two >= 4"
    );
    let half = n / 2;
    // Pack even samples into the real parts, odd samples into the
    // imaginary parts, of an N/2-point complex sequence.
    let mut packed: Vec<Complex64> = (0..half)
        .map(|i| Complex64::new(signal[2 * i], signal[2 * i + 1]))
        .collect();
    engine.run(&engine.plan_kind(TransformKind::R2C, n), &mut packed);
    // The plan leaves the packed halfcomplex spectrum: X[k] in slot k for
    // 1 ≤ k < N/2, and the (real) X[0], X[N/2] sharing slot 0.
    let mut out = Vec::with_capacity(half + 1);
    out.push(Complex64::new(packed[0].re, 0.0));
    out.extend_from_slice(&packed[1..]);
    out.push(Complex64::new(packed[0].im, 0.0));
    out
}

/// Inverse of [`rfft`]: reconstructs the length-`2·(spectrum.len()−1)` real
/// signal from the nonredundant half spectrum.
pub fn irfft(spectrum: &[Complex64]) -> Vec<f64> {
    irfft_with(spectrum, &Fft::new())
}

/// As [`irfft`] with an explicit engine.
pub fn irfft_with(spectrum: &[Complex64], engine: &Fft) -> Vec<f64> {
    let half = spectrum.len() - 1;
    assert!(
        half >= 2 && half.is_power_of_two(),
        "spectrum must hold 2^k + 1 bins with 2^k >= 2"
    );
    let n = 2 * half;
    // Repack into the plan's halfcomplex convention: X[0] and X[N/2] are
    // real and share slot 0; slots 1..N/2 hold X[1..N/2].
    let mut packed = Vec::with_capacity(half);
    packed.push(Complex64::new(spectrum[0].re, spectrum[half].re));
    packed.extend_from_slice(&spectrum[1..half]);
    engine.run(&engine.plan_kind(TransformKind::C2R, n), &mut packed);
    // Even samples come back in the real parts, odd in the imaginary.
    let mut out = Vec::with_capacity(n);
    for z in packed {
        out.push(z.re);
        out.push(z.im);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_dft;
    use std::f64::consts::PI;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.4 * (i as f64 * 1.1).cos())
            .collect()
    }

    #[test]
    fn matches_complex_dft() {
        for n in [4usize, 16, 256, 1024] {
            let x = signal(n);
            let complex_in: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let expect = naive_dft(&complex_in);
            let got = rfft(&x);
            assert_eq!(got.len(), n / 2 + 1);
            for k in 0..=n / 2 {
                assert!(
                    got[k].dist(expect[k]) < 1e-9 * (n as f64),
                    "n={n} bin {k}: {} vs {}",
                    got[k],
                    expect[k]
                );
            }
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        for n in [8usize, 64, 4096] {
            let x = signal(n);
            let back = irfft(&rfft(&x));
            assert_eq!(back.len(), n);
            let err: f64 = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
                / n as f64;
            assert!(err < 1e-12, "n={n}: {err}");
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let x = signal(512);
        let spec = rfft(&x);
        assert!(spec[0].im.abs() < 1e-9, "DC bin must be real");
        assert!(spec[256].im.abs() < 1e-9, "Nyquist bin must be real");
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
    }

    #[test]
    fn pure_tone_hits_one_bin() {
        let n = 1024;
        let k0 = 31;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * (k0 * i) as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&x);
        assert!((spec[k0].re - n as f64 / 2.0).abs() < 1e-8);
        for (k, v) in spec.iter().enumerate() {
            if k != k0 {
                assert!(v.abs() < 1e-8, "leak at {k}");
            }
        }
    }

    #[test]
    fn explicit_engine_reuses_one_plan() {
        use crate::planner::Planner;
        use std::sync::Arc;
        let planner = Arc::new(Planner::new());
        let engine = Fft::new()
            .with_workers(2)
            .with_planner(Arc::clone(&planner));
        let x = signal(256);
        let a = rfft_with(&x, &engine);
        let b = rfft_with(&x, &engine);
        assert_eq!(a, b, "cached second call must be bit-identical");
        // One R2C plan and its embedded inner complex plan at most; the
        // second call must not build anything new.
        let built = planner.stats().built;
        let _ = rfft_with(&x, &engine);
        assert_eq!(planner.stats().built, built);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_length() {
        rfft(&signal(24));
    }

    #[test]
    #[should_panic(expected = "2^k + 1 bins")]
    fn irfft_rejects_bad_length() {
        irfft(&[Complex64::ZERO; 7]);
    }
}
