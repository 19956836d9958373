//! 2-D FFT by row–column decomposition — a thin veneer over the plan
//! pipeline: the transform is a [`TransformKind::C2C2D`] plan resolved
//! through the engine's [`crate::planner::Planner`], so the row wave, the
//! blocked transpose, and the column wave all run on certified stage
//! tables, are visible to `fgcheck`'s passes and the bank linter through
//! `fgfft::workload`, and share the process-wide plan cache.
//!
//! Layout: row-major `rows × cols`, both powers of two. The plan runs one
//! batched 1-D FFT wave over the rows, transposes in `block × block` tiles,
//! runs the column wave, and transposes back.

use crate::api::Fft;
use crate::complex::Complex64;
use crate::workload::TransformKind;
use std::f64::consts::PI;

/// A 2-D FFT engine for a fixed shape.
///
/// ```
/// use fgfft::{Complex64, Fft2d};
/// let engine = Fft2d::with_workers(4, 8, 2);
/// let mut img = vec![Complex64::ZERO; 32];
/// img[0] = Complex64::ONE;                 // 2-D impulse
/// engine.forward(&mut img);
/// assert!(img.iter().all(|v| v.dist(Complex64::ONE) < 1e-12));
/// ```
#[derive(Debug)]
pub struct Fft2d {
    rows: usize,
    cols: usize,
    engine: Fft,
}

impl Fft2d {
    /// Plan a `rows × cols` transform (both powers of two ≥ 2) on all
    /// available cores.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_workers(
            rows,
            cols,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Plan with an explicit worker count.
    pub fn with_workers(rows: usize, cols: usize, workers: usize) -> Self {
        assert!(
            rows >= 2 && cols >= 2 && rows.is_power_of_two() && cols.is_power_of_two(),
            "rows and cols must be powers of two >= 2"
        );
        let engine = Fft::new().with_workers(workers);
        let this = Self { rows, cols, engine };
        // Resolve (and thereby cache) the plan eagerly: construction is the
        // planning step, exactly as before the veneer refactor.
        this.engine.plan_kind(this.kind(), rows * cols);
        this
    }

    fn kind(&self) -> TransformKind {
        TransformKind::C2C2D {
            rows_log2: self.rows.trailing_zeros(),
            cols_log2: self.cols.trailing_zeros(),
        }
    }

    /// Shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// In-place forward 2-D transform of row-major `data`
    /// (`data.len() == rows·cols`).
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.rows * self.cols, "shape mismatch");
        let plan = self.engine.plan_kind(self.kind(), data.len());
        self.engine.run(&plan, data);
    }

    /// In-place inverse 2-D transform (normalized by `1/(rows·cols)`).
    pub fn inverse(&self, data: &mut [Complex64]) {
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.forward(data);
        let scale = 1.0 / (self.rows * self.cols) as f64;
        for v in data.iter_mut() {
            *v = v.conj().scale(scale);
        }
    }
}

/// Out-of-place transpose: `dst[c][r] = src[r][c]` for `rows × cols` src.
/// Blocked for cache friendliness.
pub fn transpose(src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    const BLOCK: usize = 32;
    for rb in (0..rows).step_by(BLOCK) {
        for cb in (0..cols).step_by(BLOCK) {
            for r in rb..(rb + BLOCK).min(rows) {
                for c in cb..(cb + BLOCK).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Naive O((RC)²) 2-D DFT: the correctness oracle.
pub fn naive_dft2d(input: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
    assert_eq!(input.len(), rows * cols);
    let mut out = vec![Complex64::ZERO; rows * cols];
    for kr in 0..rows {
        for kc in 0..cols {
            let mut acc = Complex64::ZERO;
            for r in 0..rows {
                for c in 0..cols {
                    let angle = -2.0 * PI * (kr * r) as f64 / rows as f64
                        - 2.0 * PI * (kc * c) as f64 / cols as f64;
                    acc += input[r * cols + c] * Complex64::expi(angle);
                }
            }
            out[kr * cols + kc] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::rms_error;
    use crate::reference::recursive_fft;

    fn image(rows: usize, cols: usize) -> Vec<Complex64> {
        (0..rows * cols)
            .map(|i| {
                Complex64::new(
                    ((i * 31 + 7) % 64) as f64 / 32.0 - 1.0,
                    ((i * 17 + 3) % 64) as f64 / 32.0 - 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_naive_2d_dft() {
        for (r, c) in [(4usize, 4usize), (8, 4), (4, 16), (16, 16)] {
            let x = image(r, c);
            let expect = naive_dft2d(&x, r, c);
            let mut got = x;
            Fft2d::with_workers(r, c, 3).forward(&mut got);
            assert!(rms_error(&got, &expect) < 1e-9, "{r}x{c}");
        }
    }

    #[test]
    fn roundtrip() {
        let (r, c) = (64, 128);
        let x = image(r, c);
        let engine = Fft2d::new(r, c);
        let mut v = x.clone();
        engine.forward(&mut v);
        engine.inverse(&mut v);
        assert!(rms_error(&v, &x) < 1e-12);
    }

    #[test]
    fn impulse_is_flat_plane() {
        let (r, c) = (16, 32);
        let mut x = vec![Complex64::ZERO; r * c];
        x[0] = Complex64::ONE;
        Fft2d::new(r, c).forward(&mut x);
        assert!(x.iter().all(|v| v.dist(Complex64::ONE) < 1e-12));
    }

    #[test]
    fn separability_matches_1d_rows_then_cols() {
        let (r, c) = (8, 16);
        let x = image(r, c);
        // Reference: 1-D FFT each row, then each column, serially.
        let mut manual = x.clone();
        for row in manual.chunks_exact_mut(c) {
            let out = recursive_fft(row);
            row.copy_from_slice(&out);
        }
        for col in 0..c {
            let column: Vec<Complex64> = (0..r).map(|i| manual[i * c + col]).collect();
            let out = recursive_fft(&column);
            for (i, v) in out.into_iter().enumerate() {
                manual[i * c + col] = v;
            }
        }
        let mut got = x;
        Fft2d::with_workers(r, c, 2).forward(&mut got);
        assert!(rms_error(&got, &manual) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let (r, c) = (8, 32);
        let x = image(r, c);
        let mut t = vec![Complex64::ZERO; r * c];
        let mut back = vec![Complex64::ZERO; r * c];
        transpose(&x, &mut t, r, c);
        transpose(&t, &mut back, c, r);
        assert_eq!(x, back);
    }

    #[test]
    fn worker_counts_agree() {
        let (r, c) = (32, 64);
        let x = image(r, c);
        let mut a = x.clone();
        Fft2d::with_workers(r, c, 1).forward(&mut a);
        for workers in [2, 4, 8] {
            let mut b = x.clone();
            Fft2d::with_workers(r, c, workers).forward(&mut b);
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn shares_the_process_wide_plan_cache() {
        let (r, c) = (4, 8);
        let warm = crate::planner::Planner::shared().stats().built;
        let mut x = image(r, c);
        Fft2d::with_workers(r, c, 1).forward(&mut x);
        let built = crate::planner::Planner::shared().stats().built;
        let mut y = image(r, c);
        Fft2d::with_workers(r, c, 1).forward(&mut y);
        assert_eq!(
            crate::planner::Planner::shared().stats().built,
            built,
            "second engine reuses the cached 2D plan"
        );
        let _ = warm;
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn forward_checks_shape() {
        let mut x = image(4, 4);
        Fft2d::new(8, 8).forward(&mut x);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_bad_shape() {
        Fft2d::new(12, 8);
    }
}
