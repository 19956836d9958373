//! The codelet kernel: one `2^p`-point FFT work unit.
//!
//! A codelet gathers its `P` elements from the (bit-reversal-permuted) data
//! array into a local buffer — on C64 this is the per-TU scratchpad, here a
//! stack array — applies `q` butterfly levels, and scatters the results back
//! in place. Twiddle factors are looked up by *logical* index; the table's
//! layout (linear vs hashed) decides which memory location that touches,
//! which matters to the machine but not to the arithmetic.
//!
//! On the host a [`crate::Plan`] performs the twiddle lookups once at
//! build time and its kernels compute element addresses in closed form
//! ([`crate::exec::shared::execute_codelet_tabled`] is the scalar
//! reference); this module keeps the [`butterfly`] both paths share, and,
//! for tests, the index-algebra kernel the plan tables are checked
//! against.

use crate::complex::Complex64;
#[cfg(test)]
use crate::{
    plan::{FftPlan, MAX_RADIX_LOG2},
    twiddle::TwiddleTable,
    workload::low_mask,
};

// The index-algebra tables the kernel's arithmetic is replayed from live in
// the workload layer (the single authority); re-exported here because they
// describe what this kernel does.
pub use crate::workload::{for_each_twiddle_index, twiddle_loads};

/// Local buffer size: the largest supported codelet.
#[cfg(test)]
const BUF: usize = 1 << MAX_RADIX_LOG2;

/// One radix-2 butterfly: `(a, b) ← (a + w·b, a − w·b)`.
#[inline(always)]
pub fn butterfly(a: Complex64, b: Complex64, w: Complex64) -> (Complex64, Complex64) {
    let t = w * b;
    (a + t, a - t)
}

/// Execute codelet `(stage, idx)` of `plan` on `data` in place by index
/// algebra — the test oracle the plan's flattened tables are checked
/// against bit for bit.
///
/// `data` must be the full `plan.n()`-element array *after* bit-reversal
/// permutation, with stages `0..stage` already applied to this codelet's
/// elements.
#[cfg(test)]
pub(crate) fn execute_codelet(
    plan: &FftPlan,
    twiddles: &TwiddleTable,
    data: &mut [Complex64],
    stage: usize,
    idx: usize,
) {
    debug_assert_eq!(data.len(), plan.n());
    let mut buf = [Complex64::ZERO; BUF];
    // Gather.
    plan.for_each_element(stage, idx, |slot, e| buf[slot] = data[e]);
    compute_in_buffer(plan, twiddles, &mut buf, stage, idx);
    // Scatter.
    plan.for_each_element(stage, idx, |slot, e| data[e] = buf[slot]);
}

/// The arithmetic core of [`execute_codelet`], operating on the gathered
/// local buffer.
#[cfg(test)]
pub(crate) fn compute_in_buffer(
    plan: &FftPlan,
    twiddles: &TwiddleTable,
    buf: &mut [Complex64; BUF],
    stage: usize,
    idx: usize,
) {
    let p = plan.radix_log2();
    let q = plan.levels(stage);
    let pj = p * stage as u32;
    let n_log2 = plan.n_log2();
    let groups = 1usize << (p - q);
    let group_size = 1usize << q;
    let first_group = idx << (p - q);

    for ll in 0..q {
        let l = pj + ll;
        let shift = n_log2 - l - 1;
        let ll_mask = (1usize << ll) - 1;
        for g_rel in 0..groups {
            let g = first_group + g_rel;
            let g_low = g & low_mask(pj);
            let base = g_rel * group_size;
            for b in 0..group_size / 2 {
                // Local butterfly pattern at level ll within the group.
                let x_lo = ((b >> ll) << (ll + 1)) | (b & ll_mask);
                let lo = base + x_lo;
                let hi = lo + (1 << ll);
                // Global twiddle offset o = (x_lo mod 2^ll)·2^{p·j} + g_low;
                // twiddle index = o · 2^{n−l−1}.
                let o = ((b & ll_mask) << pj) + g_low;
                let w = twiddles.get(o << shift);
                let (a, c) = butterfly(buf[lo], buf[hi], w);
                buf[lo] = a;
                buf[hi] = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::rms_error;
    use crate::exec::Version;
    use crate::planner::{Plan, PlanKey};
    use crate::reference::naive_dft;
    use crate::twiddle::TwiddleLayout;
    use codelet::runtime::Runtime;

    /// The whole FFT through a freshly built plan on one worker — the
    /// production path, with the schedule's order fixed by the runtime.
    fn plan_fft(data: &mut [Complex64], radix_log2: u32, layout: TwiddleLayout) {
        let key = PlanKey::with_radix(data.len(), Version::Coarse, layout, radix_log2);
        Plan::build(key).execute(data, &Runtime::with_workers(1));
    }

    fn impulse_response(n: usize) {
        // FFT of a unit impulse is all-ones.
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        plan_fft(&mut data, 6, TwiddleLayout::Linear);
        for (i, &v) in data.iter().enumerate() {
            assert!(v.dist(Complex64::ONE) < 1e-12, "bin {i} = {v}");
        }
    }

    #[test]
    fn impulse_various_sizes() {
        for n_log2 in [1u32, 2, 3, 6, 7, 12, 13] {
            impulse_response(1 << n_log2);
        }
    }

    #[test]
    fn matches_naive_dft_all_radices() {
        for n_log2 in [4u32, 7, 9] {
            let n = 1usize << n_log2;
            let input: Vec<Complex64> = (0..n)
                .map(|i| {
                    Complex64::new(
                        ((i * 37 + 11) % 101) as f64 / 50.0 - 1.0,
                        ((i * 73 + 29) % 97) as f64 / 48.0 - 1.0,
                    )
                })
                .collect();
            let expect = naive_dft(&input);
            for radix_log2 in 1..=MAX_RADIX_LOG2 {
                let mut data = input.clone();
                plan_fft(&mut data, radix_log2, TwiddleLayout::Linear);
                let err = rms_error(&data, &expect);
                assert!(err < 1e-9, "n=2^{n_log2} radix=2^{radix_log2}: rms {err}");
            }
        }
    }

    #[test]
    fn hashed_layouts_do_not_change_results() {
        let n = 1usize << 9;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let expect = naive_dft(&input);
        let mut lin = input.clone();
        plan_fft(&mut lin, 6, TwiddleLayout::Linear);
        assert!(rms_error(&lin, &expect) < 1e-9);
        for layout in [
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ] {
            let mut h = input.clone();
            plan_fft(&mut h, 6, layout);
            assert_eq!(h, lin, "layout {layout:?}");
        }
    }

    #[test]
    fn butterfly_identity() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        let (s, d) = butterfly(a, b, Complex64::ONE);
        assert!(s.dist(a + b) < 1e-15);
        assert!(d.dist(a - b) < 1e-15);
    }

    #[test]
    fn tabled_replay_is_bitwise_identical_to_compute_in_buffer() {
        use crate::workload::{append_twiddle_run, butterfly_pairs};
        for (n_log2, p_log2) in [(13u32, 6u32), (12, 6), (9, 3), (3, 2)] {
            let plan = FftPlan::new(n_log2, p_log2);
            for layout in [TwiddleLayout::Linear, TwiddleLayout::BitReversedHash] {
                let tw = TwiddleTable::new(n_log2, layout);
                for stage in 0..plan.stages() {
                    let pairs = butterfly_pairs(&plan, stage);
                    for idx in [0, plan.codelets_per_stage() - 1] {
                        let mut run = Vec::new();
                        append_twiddle_run(&plan, &tw, stage, idx, &mut run);
                        assert_eq!(run.len(), pairs.len(), "one twiddle per butterfly");
                        let mut direct = [Complex64::ZERO; BUF];
                        for (s, v) in direct.iter_mut().enumerate() {
                            *v = Complex64::new(s as f64 * 0.3 - 1.0, (s as f64 * 0.7).cos());
                        }
                        let mut replay = direct;
                        compute_in_buffer(&plan, &tw, &mut direct, stage, idx);
                        for (&(lo, hi), &w) in pairs.iter().zip(&run) {
                            let (a, c) = butterfly(replay[lo as usize], replay[hi as usize], w);
                            replay[lo as usize] = a;
                            replay[hi as usize] = c;
                        }
                        assert_eq!(
                            direct.to_vec(),
                            replay.to_vec(),
                            "stage {stage} idx {idx} {layout:?}"
                        );
                    }
                }
            }
        }
    }
}
