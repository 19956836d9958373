//! Integration and randomized tests for the extended transform surface:
//! real-input FFT, arbitrary-length Bluestein DFT, 2-D FFT and STFT — all
//! validated against each other and the naive oracles. Random inputs come
//! from a seeded PRNG.

use fgfft::fft2d::{naive_dft2d, Fft2d};
use fgfft::reference::naive_dft;
use fgfft::{rms_error, Complex64, StftConfig, Window};
use fgsupport::rng::Rng64;

fn cx(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

fn complex_vec(rng: &mut Rng64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| cx(rng.gen_range_f64(-1.0..1.0), rng.gen_range_f64(-1.0..1.0)))
        .collect()
}

/// Bluestein matches the naive DFT for arbitrary lengths.
#[test]
fn bluestein_matches_naive() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(1100 + case);
        let n = rng.gen_range(1..160);
        let x = complex_vec(&mut rng, n);
        let got = fgfft::dft(&x);
        let expect = naive_dft(&x);
        assert!(rms_error(&got, &expect) < 1e-8, "case {case} n={n}");
    }
}

/// Bluestein round-trips for arbitrary lengths.
#[test]
fn bluestein_roundtrip() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(1200 + case);
        let n = rng.gen_range(1..200);
        let x = complex_vec(&mut rng, n);
        let back = fgfft::idft(&fgfft::dft(&x));
        assert!(rms_error(&back, &x) < 1e-9, "case {case} n={n}");
    }
}

/// rfft agrees with the complex transform on the nonredundant half.
#[test]
fn rfft_matches_complex_path() {
    for case in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(1300 + case);
        let raw: Vec<f64> = (0..8).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
        let n = 64usize << rng.gen_range(0..6);
        let signal: Vec<f64> = (0..n)
            .map(|i| raw[i % raw.len()] * ((i as f64) * 0.173).sin())
            .collect();
        let spec = fgfft::rfft(&signal);
        let mut full: Vec<Complex64> = signal.iter().map(|&v| cx(v, 0.0)).collect();
        fgfft::forward(&mut full);
        for k in 0..=n / 2 {
            assert!(spec[k].dist(full[k]) < 1e-8, "case {case} bin {k}");
        }
    }
}

#[test]
fn fft2d_matches_naive_oracle() {
    let (r, c) = (8, 32);
    let img: Vec<Complex64> = (0..r * c)
        .map(|i| cx((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
        .collect();
    let expect = naive_dft2d(&img, r, c);
    let mut got = img;
    Fft2d::with_workers(r, c, 4).forward(&mut got);
    assert!(rms_error(&got, &expect) < 1e-9);
}

#[test]
fn fft2d_row_of_tones_concentrates() {
    // A plane wave concentrates at a single 2-D bin.
    let (rows, cols) = (32, 64);
    let (kr, kc) = (5, 11);
    let img: Vec<Complex64> = (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            Complex64::expi(
                2.0 * std::f64::consts::PI * (kr * r) as f64 / rows as f64
                    + 2.0 * std::f64::consts::PI * (kc * c) as f64 / cols as f64,
            )
        })
        .collect();
    let mut f = img;
    Fft2d::new(rows, cols).forward(&mut f);
    let peak = f[kr * cols + kc];
    assert!(peak.dist(cx((rows * cols) as f64, 0.0)) < 1e-7);
    let leak = f
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != kr * cols + kc)
        .map(|(_, v)| v.abs())
        .fold(0.0, f64::max);
    assert!(leak < 1e-7, "leakage {leak}");
}

#[test]
fn stft_parseval_per_frame() {
    // Each frame's spectrum energy matches the windowed frame's energy
    // (rfft halves need the conjugate-symmetric double-count).
    let n = 4096;
    let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let config = StftConfig {
        frame_len: 256,
        hop: 256,
        window: Window::Hamming,
    };
    let frames = fgfft::stft(&signal, &config);
    let coeffs = config.window.coefficients(config.frame_len);
    for (f, spec) in frames.iter().enumerate() {
        let time_energy: f64 = (0..config.frame_len)
            .map(|i| {
                let v = signal[f * config.hop + i] * coeffs[i];
                v * v
            })
            .sum();
        let mut freq_energy = spec[0].norm_sqr() + spec[config.frame_len / 2].norm_sqr();
        for v in &spec[1..config.frame_len / 2] {
            freq_energy += 2.0 * v.norm_sqr();
        }
        freq_energy /= config.frame_len as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0),
            "frame {f}: {time_energy} vs {freq_energy}"
        );
    }
}

#[test]
fn bluestein_handles_every_small_length() {
    for n in 1..=48 {
        let x: Vec<Complex64> = (0..n)
            .map(|i| cx((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
            .collect();
        let got = fgfft::dft(&x);
        let expect = naive_dft(&x);
        assert!(rms_error(&got, &expect) < 1e-9, "n={n}");
    }
}

#[test]
fn windows_reduce_stft_sidelobes() {
    // An off-bin tone: the Hann spectrogram's off-peak energy is far below
    // the rectangular one's.
    let n = 8192;
    let frame_len = 512;
    let signal: Vec<f64> = (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * 40.37 * i as f64 / frame_len as f64).sin())
        .collect();
    let energy_far = |w: Window| -> f64 {
        let spec = fgfft::spectrogram(
            &signal,
            &StftConfig {
                frame_len,
                hop: 512,
                window: w,
            },
        );
        (0..spec.frames)
            .map(|f| {
                (100..spec.config.bins())
                    .map(|b| spec.at(f, b))
                    .sum::<f64>()
            })
            .sum()
    };
    let rect = energy_far(Window::Rectangular);
    let hann = energy_far(Window::Hann);
    assert!(hann < rect / 50.0, "hann {hann} vs rect {rect}");
}
