//! High-level user-facing API: forward/inverse transforms, spectra, and
//! FFT-based convolution, built on cached plans.

use crate::backend::default_kernel;
use crate::complex::Complex64;
use crate::exec::{ExecStats, Version};
use crate::planner::{Plan, PlanKey, Planner};
use codelet::runtime::Runtime;
use std::sync::Arc;

/// A configured FFT engine. Cheap to construct and reusable across calls of
/// the same or different sizes.
///
/// Repeated transforms of one size reuse a cached [`crate::Plan`] — twiddle
/// table, stage tables, materialized schedule — through a shared
/// [`Planner`]: only the first call of each `(size, version, layout)` pays
/// the derivation. By default every engine shares the process-wide
/// [`Planner::shared`] cache; [`Fft::with_planner`] isolates one.
///
/// Every transform runs the host's default kernel (the vector kernel
/// wherever the plan allows it, as [`crate::BackendSel::default`] selects),
/// bit-identical to the scalar reference [`crate::Plan::execute`].
///
/// ```
/// use fgfft::{Fft, Complex64};
///
/// let fft = Fft::new();
/// let mut data = vec![Complex64::ZERO; 1024];
/// data[1] = Complex64::ONE;
/// fft.forward(&mut data);
/// // A one-sample delay has flat magnitude spectrum.
/// assert!(data.iter().all(|v| (v.abs() - 1.0).abs() < 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    version: Version,
    workers: usize,
    radix_log2: u32,
    planner: Arc<Planner>,
}

impl Default for Fft {
    fn default() -> Self {
        Self::new()
    }
}

impl Fft {
    /// Engine with the library defaults: guided fine-grain scheduling,
    /// 64-point codelets, all available cores.
    pub fn new() -> Self {
        Self {
            version: Version::FineGuided,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            radix_log2: 6,
            planner: Planner::shared(),
        }
    }

    /// Select an algorithm version.
    pub fn with_version(mut self, version: Version) -> Self {
        self.version = version;
        self
    }

    /// Select a worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Select the codelet radix (log2 of points per codelet, 1..=7).
    pub fn with_radix_log2(mut self, radix_log2: u32) -> Self {
        self.radix_log2 = radix_log2;
        self
    }

    /// Use a specific plan cache instead of the process-wide shared one —
    /// for isolation (tests, metrics) or bounded-lifetime caches.
    pub fn with_planner(mut self, planner: Arc<Planner>) -> Self {
        self.planner = planner;
        self
    }

    /// The algorithm version in force.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The plan cache this engine resolves against.
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// Resolve the plan for `kind` at logical size `n` against this
    /// engine's planner — the veneer hook `rfft`/`fft2d` route through.
    pub(crate) fn plan_kind(&self, kind: crate::workload::TransformKind, n: usize) -> Arc<Plan> {
        self.planner.plan_key(PlanKey::with_kind(
            kind,
            n,
            self.version,
            self.version.layout(),
            self.radix_log2,
        ))
    }

    /// Run `plan` over `data` on this engine's workers with the host's
    /// default kernel — the one execution step of every library transform
    /// (`forward`, `rfft`/`irfft`, `Fft2d`).
    pub(crate) fn run(&self, plan: &Plan, data: &mut [Complex64]) -> ExecStats {
        plan.execute_with(
            default_kernel(plan),
            data,
            &Runtime::with_workers(self.workers),
        )
    }

    /// In-place forward transform. Length must be a power of two ≥ 2.
    pub fn forward(&self, data: &mut [Complex64]) -> ExecStats {
        let key = PlanKey::with_radix(
            data.len(),
            self.version,
            self.version.layout(),
            self.radix_log2,
        );
        self.run(&self.planner.plan_key(key), data)
    }

    /// In-place inverse transform (normalized by 1/N), via the conjugation
    /// identity `IFFT(x) = conj(FFT(conj(x))) / N`.
    pub fn inverse(&self, data: &mut [Complex64]) -> ExecStats {
        for v in data.iter_mut() {
            *v = v.conj();
        }
        let stats = self.forward(data);
        let scale = 1.0 / data.len() as f64;
        for v in data.iter_mut() {
            *v = v.conj().scale(scale);
        }
        stats
    }
}

/// One-call forward FFT with default settings.
pub fn forward(data: &mut [Complex64]) -> ExecStats {
    Fft::new().forward(data)
}

/// One-call inverse FFT with default settings.
pub fn inverse(data: &mut [Complex64]) -> ExecStats {
    Fft::new().inverse(data)
}

/// Power spectrum of a real signal: `|FFT(x)|²` for bins `0..=N/2` after
/// zero-padding `x` to the next power of two. Returns (padded length,
/// per-bin power).
pub fn power_spectrum(signal: &[f64]) -> (usize, Vec<f64>) {
    assert!(!signal.is_empty(), "empty signal");
    let n = signal.len().next_power_of_two().max(2);
    let mut data: Vec<Complex64> = signal
        .iter()
        .map(|&x| Complex64::new(x, 0.0))
        .chain(std::iter::repeat(Complex64::ZERO))
        .take(n)
        .collect();
    forward(&mut data);
    let spectrum = data[..=n / 2].iter().map(|v| v.norm_sqr()).collect();
    (n, spectrum)
}

/// Linear convolution of two complex sequences via the convolution theorem.
/// Output length is `a.len() + b.len() − 1`.
pub fn convolve(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert!(!a.is_empty() && !b.is_empty(), "empty operand");
    let out_len = a.len() + b.len() - 1;
    let n = out_len.next_power_of_two().max(2);
    let engine = Fft::new();
    let mut fa: Vec<Complex64> = a
        .iter()
        .copied()
        .chain(std::iter::repeat(Complex64::ZERO))
        .take(n)
        .collect();
    let mut fb: Vec<Complex64> = b
        .iter()
        .copied()
        .chain(std::iter::repeat(Complex64::ZERO))
        .take(n)
        .collect();
    engine.forward(&mut fa);
    engine.forward(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    engine.inverse(&mut fa);
    fa.truncate(out_len);
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::rms_error;
    use crate::exec::SeedOrder;
    use crate::reference::{naive_dft, naive_idft};

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.19).sin(), (i as f64 * 0.41).cos()))
            .collect()
    }

    #[test]
    fn forward_matches_dft() {
        let x = signal(256);
        let expect = naive_dft(&x);
        let mut data = x;
        forward(&mut data);
        assert!(rms_error(&data, &expect) < 1e-10);
    }

    #[test]
    fn inverse_matches_idft() {
        let x = signal(128);
        let expect = naive_idft(&x);
        let mut data = x;
        inverse(&mut data);
        assert!(rms_error(&data, &expect) < 1e-10);
    }

    #[test]
    fn roundtrip_is_identity() {
        let x = signal(1 << 12);
        let engine = Fft::new().with_workers(4);
        let mut data = x.clone();
        engine.forward(&mut data);
        engine.inverse(&mut data);
        assert!(rms_error(&data, &x) < 1e-12);
    }

    #[test]
    fn builder_options_apply() {
        let engine = Fft::new()
            .with_version(Version::Fine(SeedOrder::Reversed))
            .with_workers(2)
            .with_radix_log2(3);
        assert_eq!(engine.version(), Version::Fine(SeedOrder::Reversed));
        let x = signal(64);
        let expect = naive_dft(&x);
        let mut data = x;
        engine.forward(&mut data);
        assert!(rms_error(&data, &expect) < 1e-10);
    }

    #[test]
    fn repeated_forwards_reuse_one_plan() {
        let planner = Arc::new(Planner::new());
        let engine = Fft::new()
            .with_workers(2)
            .with_planner(Arc::clone(&planner));
        let mut a = signal(1 << 9);
        let mut b = a.clone();
        engine.forward(&mut a);
        engine.forward(&mut b);
        assert_eq!(a, b, "cached second call must be bit-identical");
        let stats = planner.stats();
        assert_eq!(stats.built, 1, "twiddles derived once, not per call");
        assert_eq!(stats.hits, 1);
        // A different size is a different plan.
        let mut c = signal(1 << 10);
        engine.forward(&mut c);
        assert_eq!(planner.stats().built, 2);
    }

    #[test]
    fn power_spectrum_finds_a_tone() {
        use std::f64::consts::PI;
        let n = 512;
        let freq = 37;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * freq as f64 * i as f64 / n as f64).sin())
            .collect();
        let (padded, spec) = power_spectrum(&signal);
        assert_eq!(padded, 512);
        assert_eq!(spec.len(), 257);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, freq);
    }

    #[test]
    fn power_spectrum_pads_to_power_of_two() {
        let (padded, spec) = power_spectrum(&[1.0; 300]);
        assert_eq!(padded, 512);
        assert_eq!(spec.len(), 257);
    }

    #[test]
    fn convolve_matches_direct() {
        let a = signal(37);
        let b = signal(23);
        let direct = {
            let mut out = vec![Complex64::ZERO; 59];
            for (i, &x) in a.iter().enumerate() {
                for (j, &y) in b.iter().enumerate() {
                    out[i + j] += x * y;
                }
            }
            out
        };
        let fast = convolve(&a, &b);
        assert_eq!(fast.len(), 59);
        assert!(rms_error(&fast, &direct) < 1e-10);
    }

    #[test]
    fn convolve_with_delta_is_identity() {
        let a = signal(40);
        let delta = vec![Complex64::ONE];
        let out = convolve(&a, &delta);
        assert!(rms_error(&out, &a) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty signal")]
    fn power_spectrum_rejects_empty() {
        power_spectrum(&[]);
    }
}
