//! Vectorized butterfly kernel: f64x4 (two complex lanes) over the plan's
//! flattened stage tables.
//!
//! # Why the tables make this safe — and bit-exact
//!
//! The scalar kernel gathers a codelet's `2^p` elements into a local
//! buffer, runs the stage's butterfly pairs over that buffer, and scatters
//! back. Two structural facts, both *verified* rather than assumed, turn
//! that loop into straight-line vector code:
//!
//! 1. **The gather run is a partition.** fgcheck's FG404 proves each
//!    stage's gather runs claim every element exactly once, so while a
//!    codelet executes it has exclusive ownership of its buffer — the
//!    aliasing precondition for issuing unchecked vector loads/stores on
//!    the local buffer without any synchronization.
//! 2. **The pair and slot patterns are the canonical radix-2 lowering.**
//!    For level `ll` of a `q`-level stage with `groups = 2^(p-q)`,
//!    butterfly `k` touches `lo = (c << (ll+1)) + r`, `hi = lo + 2^ll`
//!    with `c = k >> ll`, `r = k & (2^ll - 1)`, and its twiddle sits at
//!    slot `(2^ll - 1)·groups + ((k >> (q-1)) << ll) + r` of the codelet's
//!    class run (FG402/FG403/FG406 pin the tables to this shape, FG405
//!    pins every codelet's slot-indexed run to the workload authority).
//!    So at levels `ll >= 1` an even butterfly and its successor read
//!    *consecutive buffer slots and consecutive twiddles*, and at level 0
//!    the butterflies of one group share one twiddle. [`HostSimd::prepare`]
//!    re-verifies both patterns directly and falls back to the scalar
//!    kernel on any mismatch, so the vector paths never guess.
//!
//! The kernel then runs each level as a contiguous two-complex-wide pass,
//! and register-fuses the lowest 2 or 3 levels (radix-4 / radix-8
//! butterflies) so a block of 4 or 8 complexes stays in registers across
//! levels — the structure of bellman's `radix_fft` kernels, driven by
//! FFTW-style tables. Level-0 twiddles are broadcast into both lanes;
//! higher levels load two consecutive run entries.
//!
//! Bit-exactness: vectorization only batches *independent* butterflies;
//! each lane performs the scalar sequence `mul, mul, sub/add` of
//! [`crate::kernel::butterfly`]'s complex multiply exactly (AVX2
//! `mul`/`mul`/`addsub`, never FMA), so every backend produces the bits of
//! the scalar path.

use super::scalar::ScalarKernel;
use super::{Backend, Capabilities, CodeletKernel, PreparedPlan};
use crate::complex::Complex64;
use crate::exec::shared::{execute_codelet_tabled, SharedData};
use crate::plan::MAX_RADIX_LOG2;
use crate::planner::Plan;
use crate::workload;
use std::sync::Arc;

/// Two packed complex doubles (four f64 lanes): the vector register
/// abstraction the generic kernel is written against. All operations are
/// lane-wise and bit-exact with the scalar arithmetic.
trait CVec: Copy {
    /// Load two consecutive complexes from `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr+2` must be valid, initialized `Complex64`s.
    unsafe fn load(ptr: *const Complex64) -> Self;

    /// Load the complex at `ptr` into both lanes.
    ///
    /// # Safety
    /// `ptr` must be a valid, initialized `Complex64`.
    unsafe fn splat(ptr: *const Complex64) -> Self;

    /// Store two consecutive complexes to `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr+2` must be valid for writes.
    unsafe fn store(self, ptr: *mut Complex64);

    /// Lane-wise complex addition.
    fn add(a: Self, b: Self) -> Self;

    /// Lane-wise complex subtraction.
    fn sub(a: Self, b: Self) -> Self;

    /// Lane-wise complex product `w * b`, performing per lane exactly the
    /// scalar sequence `(w.re*b.re - w.im*b.im, w.re*b.im + w.im*b.re)`.
    fn cmul(w: Self, b: Self) -> Self;

    /// `[a.lane0, b.lane0]`.
    fn lo_lo(a: Self, b: Self) -> Self;

    /// `[a.lane1, b.lane1]`.
    fn hi_hi(a: Self, b: Self) -> Self;
}

/// `t = w*b; (a+t, a-t)` — the radix-2 butterfly on two lanes at once.
#[inline(always)]
fn bfly<V: CVec>(a: V, b: V, w: V) -> (V, V) {
    let t = V::cmul(w, b);
    (V::add(a, t), V::sub(a, t))
}

/// Portable fallback: two scalar complexes. The compiler is free to
/// autovectorize, and every operation goes through the exact `Complex64`
/// arithmetic, so bit-equality with the scalar kernel is structural.
#[derive(Clone, Copy)]
struct Portable([Complex64; 2]);

impl CVec for Portable {
    #[inline(always)]
    unsafe fn load(ptr: *const Complex64) -> Self {
        // SAFETY: contract forwarded from the trait.
        unsafe { Self([ptr.read(), ptr.add(1).read()]) }
    }

    #[inline(always)]
    unsafe fn splat(ptr: *const Complex64) -> Self {
        // SAFETY: contract forwarded from the trait.
        let w = unsafe { ptr.read() };
        Self([w, w])
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut Complex64) {
        // SAFETY: contract forwarded from the trait.
        unsafe {
            ptr.write(self.0[0]);
            ptr.add(1).write(self.0[1]);
        }
    }

    #[inline(always)]
    fn add(a: Self, b: Self) -> Self {
        Self([a.0[0] + b.0[0], a.0[1] + b.0[1]])
    }

    #[inline(always)]
    fn sub(a: Self, b: Self) -> Self {
        Self([a.0[0] - b.0[0], a.0[1] - b.0[1]])
    }

    #[inline(always)]
    fn cmul(w: Self, b: Self) -> Self {
        Self([w.0[0] * b.0[0], w.0[1] * b.0[1]])
    }

    #[inline(always)]
    fn lo_lo(a: Self, b: Self) -> Self {
        Self([a.0[0], b.0[0]])
    }

    #[inline(always)]
    fn hi_hi(a: Self, b: Self) -> Self {
        Self([a.0[1], b.0[1]])
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // when AVX2 is in the build's baseline (-C target-cpu=native) the intrinsic calls become safe and these blocks are redundant
mod x86 {
    use super::{CVec, Complex64};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd,
        _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set_m128d,
        _mm256_storeu_pd, _mm256_sub_pd, _mm_loadu_pd,
    };

    /// Two packed complexes in one AVX2 register:
    /// `[c0.re, c0.im, c1.re, c1.im]`.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256d);

    impl CVec for Avx2 {
        #[inline(always)]
        unsafe fn load(ptr: *const Complex64) -> Self {
            // SAFETY: `Complex64` is `#[repr(C)]` `{re: f64, im: f64}`, so
            // two of them are four consecutive f64s; contract forwarded.
            unsafe { Self(_mm256_loadu_pd(ptr as *const f64)) }
        }

        #[inline(always)]
        unsafe fn splat(ptr: *const Complex64) -> Self {
            // SAFETY: one `Complex64` is two consecutive f64s; contract
            // forwarded.
            unsafe {
                let w = _mm_loadu_pd(ptr as *const f64);
                Self(_mm256_set_m128d(w, w))
            }
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut Complex64) {
            // SAFETY: as in `load`; contract forwarded.
            unsafe { _mm256_storeu_pd(ptr as *mut f64, self.0) }
        }

        #[inline(always)]
        fn add(a: Self, b: Self) -> Self {
            // SAFETY: AVX2 is enabled on every call path that reaches this
            // type (`codelet_avx2` is only entered behind runtime
            // detection).
            unsafe { Self(_mm256_add_pd(a.0, b.0)) }
        }

        #[inline(always)]
        fn sub(a: Self, b: Self) -> Self {
            // SAFETY: as in `add`.
            unsafe { Self(_mm256_sub_pd(a.0, b.0)) }
        }

        #[inline(always)]
        fn cmul(w: Self, b: Self) -> Self {
            // Per lane-pair: re = w.re*b.re - w.im*b.im,
            //               im = w.re*b.im + w.im*b.re
            // via mul/mul/addsub — the exact scalar operation sequence
            // (`addsub` subtracts in even lanes, adds in odd). No FMA:
            // fusing would change the rounding and break bit-exactness.
            // SAFETY: as in `add`.
            unsafe {
                let w_re = _mm256_movedup_pd(w.0); // [w0.re, w0.re, w1.re, w1.re]
                let w_im = _mm256_permute_pd(w.0, 0xF); // [w0.im, w0.im, w1.im, w1.im]
                let b_sw = _mm256_permute_pd(b.0, 0x5); // [b0.im, b0.re, b1.im, b1.re]
                Self(_mm256_addsub_pd(
                    _mm256_mul_pd(w_re, b.0),
                    _mm256_mul_pd(w_im, b_sw),
                ))
            }
        }

        #[inline(always)]
        fn lo_lo(a: Self, b: Self) -> Self {
            // SAFETY: as in `add`.
            unsafe { Self(_mm256_permute2f128_pd(a.0, b.0, 0x20)) }
        }

        #[inline(always)]
        fn hi_hi(a: Self, b: Self) -> Self {
            // SAFETY: as in `add`.
            unsafe { Self(_mm256_permute2f128_pd(a.0, b.0, 0x31)) }
        }
    }
}

/// The canonical butterfly pattern the vector passes assume, as a
/// predicate over one stage's pair table: level `ll`, butterfly `k` ⇒
/// `(lo, hi) = ((c << (ll+1)) + r, lo + 2^ll)` with `c = k >> ll`,
/// `r = k & (2^ll - 1)`.
fn pairs_are_canonical(pairs: &[(u32, u32)], radix: usize) -> bool {
    let half = radix / 2;
    if half == 0 || !pairs.len().is_multiple_of(half) {
        return false;
    }
    pairs.iter().enumerate().all(|(k_total, &(lo, hi))| {
        let ll = (k_total / half) as u32;
        let k = k_total % half;
        let c = k >> ll;
        let r = k & ((1usize << ll) - 1);
        let want_lo = (c << (ll + 1)) + r;
        lo as usize == want_lo && hi as usize == want_lo + (1usize << ll)
    })
}

/// The canonical slot pattern the vector passes assume, as a predicate
/// over one stage's slot table: level `ll`, butterfly `k` of a stage with
/// `q = slots.len() / (radix/2)` levels reads
/// [`workload::twiddle_slot`]`(ll, k, q, radix >> q)`.
fn slots_are_canonical(slots: &[u8], radix: usize) -> bool {
    let half = radix / 2;
    if half == 0 || slots.is_empty() || !slots.len().is_multiple_of(half) {
        return false;
    }
    let q = slots.len() / half;
    if q > radix.trailing_zeros() as usize {
        return false;
    }
    let q = q as u32;
    slots.iter().enumerate().all(|(i, &slot)| {
        let (ll, k) = ((i / half) as u32, i % half);
        slot as usize == workload::twiddle_slot(ll, k, q, radix >> q)
    })
}

/// Whether every stage of `plan` (and of a 2-D plan's column plan, which
/// runs on the same kernel) carries the canonical butterfly and slot
/// patterns over class runs of the canonical length (the precondition of
/// the fused vector passes).
pub(crate) fn tables_are_canonical(plan: &Plan) -> bool {
    let fft = plan.fft_plan();
    let radix = 1usize << fft.radix_log2();
    plan.col_plan().is_none_or(tables_are_canonical)
        && (0..fft.stages()).all(|s| {
            let table = plan.stage_table(s);
            let q = fft.levels(s);
            pairs_are_canonical(table.pairs, radix)
                && slots_are_canonical(table.slots, radix)
                && table.slots.len() == table.pairs.len()
                && table.run_len() == ((1usize << q) - 1) * (radix >> q)
        })
}

/// The generic vectorized codelet: gather, per-level two-wide passes with
/// the lowest `fuse_log2` levels register-fused, scatter.
///
/// # Safety
/// Same contract as [`execute_codelet_tabled`], **plus** `pairs` and the
/// stage's slots must satisfy [`pairs_are_canonical`] and
/// [`slots_are_canonical`] for `radix = gather.len() >= 4`, `run` must
/// hold `(2^q − 1)·(radix >> q)` values and `fuse_log2 >= 2` (verified by
/// [`HostSimd::prepare`], re-asserted here in debug builds).
#[inline(always)]
unsafe fn codelet_vec<V: CVec>(
    gather: &[u32],
    pairs: &[(u32, u32)],
    run: &[Complex64],
    view: &SharedData<'_>,
    fuse_log2: u32,
) {
    let radix = gather.len();
    let half = radix / 2;
    let q = pairs.len() / half;
    let groups = radix >> q;
    debug_assert!(radix >= 4 && radix.is_power_of_two());
    debug_assert!(fuse_log2 >= 2);
    debug_assert_eq!(run.len(), ((1 << q) - 1) * groups);
    debug_assert!(pairs_are_canonical(pairs, radix));

    let mut buf = [Complex64::ZERO; 1 << MAX_RADIX_LOG2];
    for (slot, &e) in gather.iter().enumerate() {
        // SAFETY: per the contract this codelet owns element `e`, in
        // bounds for `view`.
        buf[slot] = unsafe { view.read(e as usize) };
    }
    let bp = buf.as_mut_ptr();

    // Segment `ll` of the class run holds level `ll`'s twiddles: `2^ll`
    // per group, after the `(2^ll − 1)·groups` of the lower levels.
    // Butterfly `k` reads entry `((k >> (q−1)) << ll) + (k & (2^ll − 1))`.
    let seg = |ll: usize| unsafe { run.as_ptr().add(((1usize << ll) - 1) * groups) };

    // SAFETY (all vector loads/stores below): `buf[..radix]` is owned by
    // this call frame; each pass touches slot pairs derived from the
    // canonical pattern, which stay inside `radix`; twiddle offsets are
    // canonical slots, which stay inside the class run by the same algebra.
    unsafe {
        let mut ll = if fuse_log2 >= 3 && q >= 3 {
            // Radix-8: levels 0..3 fused over blocks of 8 complexes. The
            // block's butterflies k = 4j..=4j+3 of each level lie in one
            // group `g` (as 4 divides 2^(q−1)).
            let (t0, t1, t2) = (seg(0), seg(1), seg(2));
            for j in 0..radix / 8 {
                let g = (4 * j) >> (q - 1);
                let p = bp.add(8 * j);
                let w0 = V::splat(t0.add(g));
                let w1 = V::load(t1.add(2 * g));
                let (v0, v1) = (V::load(p), V::load(p.add(2)));
                let (v2, v3) = (V::load(p.add(4)), V::load(p.add(6)));
                // Level 0: pairs (0,1),(2,3),(4,5),(6,7) — deinterleave.
                let (a0, b0) = bfly(V::lo_lo(v0, v1), V::hi_hi(v0, v1), w0);
                let (a1, b1) = bfly(V::lo_lo(v2, v3), V::hi_hi(v2, v3), w0);
                let (v0, v1) = (V::lo_lo(a0, b0), V::hi_hi(a0, b0));
                let (v2, v3) = (V::lo_lo(a1, b1), V::hi_hi(a1, b1));
                // Level 1: pairs (0,2),(1,3),(4,6),(5,7) — register-aligned.
                let (v0, v1) = bfly(v0, v1, w1);
                let (v2, v3) = bfly(v2, v3, w1);
                // Level 2: pairs (0,4),(1,5),(2,6),(3,7) — register-aligned.
                let (v0, v2) = bfly(v0, v2, V::load(t2.add(4 * g)));
                let (v1, v3) = bfly(v1, v3, V::load(t2.add(4 * g + 2)));
                v0.store(p);
                v1.store(p.add(2));
                v2.store(p.add(4));
                v3.store(p.add(6));
            }
            3
        } else if q >= 2 {
            // Radix-4: levels 0..2 fused over blocks of 4 complexes; the
            // block's butterflies k = 2m, 2m+1 lie in one group.
            let (t0, t1) = (seg(0), seg(1));
            for m in 0..radix / 4 {
                let g = (2 * m) >> (q - 1);
                let p = bp.add(4 * m);
                let (v0, v1) = (V::load(p), V::load(p.add(2)));
                let (a, b) = bfly(V::lo_lo(v0, v1), V::hi_hi(v0, v1), V::splat(t0.add(g)));
                let (v0, v1) = bfly(V::lo_lo(a, b), V::hi_hi(a, b), V::load(t1.add(2 * g)));
                v0.store(p);
                v1.store(p.add(2));
            }
            2
        } else {
            // A lone level 0 (q = 1): interleaved pairs (2c, 2c+1), two at
            // a time; every butterfly is its own group, so slot = k.
            let t0 = seg(0);
            for m in 0..radix / 4 {
                let p = bp.add(4 * m);
                let (v0, v1) = (V::load(p), V::load(p.add(2)));
                let (a, b) = bfly(V::lo_lo(v0, v1), V::hi_hi(v0, v1), V::load(t0.add(2 * m)));
                V::lo_lo(a, b).store(p);
                V::hi_hi(a, b).store(p.add(2));
            }
            1
        };
        // Remaining levels: strided two-wide passes (span 2^ll >= 2, so a
        // vector never straddles a lo/hi boundary, nor two twiddles a
        // group boundary).
        while ll < q {
            let t = seg(ll);
            let span = 1usize << ll;
            for c in 0..radix >> (ll + 1) {
                let base = c << (ll + 1);
                let tg = t.add((c >> (q - 1 - ll)) << ll);
                let mut r = 0;
                while r < span {
                    let lo = bp.add(base + r);
                    let hi = bp.add(base + r + span);
                    let (a, b) = bfly(V::load(lo), V::load(hi), V::load(tg.add(r)));
                    a.store(lo);
                    b.store(hi);
                    r += 2;
                }
            }
            ll += 1;
        }
    }

    for (slot, &e) in gather.iter().enumerate() {
        // SAFETY: as in the gather loop.
        unsafe { view.write(e as usize, buf[slot]) };
    }
}

/// AVX2 entry point. The whole kernel is compiled with the feature
/// enabled so every wrapper above inlines down to raw vector instructions.
///
/// # Safety
/// As [`codelet_vec`]; additionally the CPU must support AVX2 (the caller
/// checks `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn codelet_avx2(
    gather: &[u32],
    pairs: &[(u32, u32)],
    run: &[Complex64],
    view: &SharedData<'_>,
    fuse_log2: u32,
) {
    // SAFETY: forwarded.
    unsafe { codelet_vec::<x86::Avx2>(gather, pairs, run, view, fuse_log2) }
}

/// The vector kernel with its dispatch decision baked in at `prepare`
/// time.
#[derive(Debug)]
struct SimdKernel {
    fuse_log2: u32,
    use_avx2: bool,
}

impl CodeletKernel for SimdKernel {
    fn label(&self) -> &'static str {
        if self.use_avx2 {
            "simd-avx2"
        } else {
            "simd-portable"
        }
    }

    #[inline]
    unsafe fn run_codelet(
        &self,
        gather: &[u32],
        pairs: &[(u32, u32)],
        slots: &[u8],
        run: &[Complex64],
        view: &SharedData<'_>,
    ) {
        if gather.len() < 4 {
            // Radix-2 codelets: one butterfly, nothing to vectorize.
            // SAFETY: forwarded.
            return unsafe { execute_codelet_tabled(gather, pairs, slots, run, view) };
        }
        // The slots are the canonical pattern `prepare` verified; the
        // vector passes compute them instead of reading them.
        debug_assert!(slots_are_canonical(slots, gather.len()));
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: forwarded; `use_avx2` implies runtime detection
            // succeeded and `prepare` verified the canonical patterns.
            return unsafe { codelet_avx2(gather, pairs, run, view, self.fuse_log2) };
        }
        // SAFETY: forwarded, as above.
        unsafe { codelet_vec::<Portable>(gather, pairs, run, view, self.fuse_log2) }
    }
}

/// SIMD host backend: vectorized butterflies on the serial certified
/// schedule.
///
/// `prepare` verifies the plan's pair tables carry the canonical pattern
/// (see the module docs) and silently degrades to the scalar path when
/// they don't or when the codelet radix is too small to vectorize — a
/// prepared plan is always correct, never merely fast.
#[derive(Debug, Clone)]
pub struct HostSimd {
    fuse_log2: u32,
    force_portable: bool,
}

impl HostSimd {
    /// Backend with the given register-fusion radix exponent (clamped to
    /// 2..=3: radix-4 or radix-8 passes). Uses AVX2 when the build (crate
    /// feature `simd`), the CPU, and the `FGFFT_SIMD` environment override
    /// all allow it; the portable four-lane kernel otherwise.
    pub fn new(simd_radix_log2: u32) -> Self {
        Self {
            fuse_log2: simd_radix_log2.clamp(2, 3),
            force_portable: false,
        }
    }

    /// As [`HostSimd::new`] but pinned to the portable kernel, regardless
    /// of CPU features — what `FGFFT_SIMD=portable` selects globally.
    pub fn portable(simd_radix_log2: u32) -> Self {
        Self {
            force_portable: true,
            ..Self::new(simd_radix_log2)
        }
    }

    fn avx2_selected(&self) -> bool {
        if self.force_portable || !cfg!(feature = "simd") {
            return false;
        }
        if std::env::var_os("FGFFT_SIMD").is_some_and(|v| v == "portable") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

impl Backend for HostSimd {
    fn name(&self) -> &'static str {
        "host-simd"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vector_isa: if self.avx2_selected() {
                "avx2"
            } else {
                "portable"
            },
            complex_lanes: 2,
        }
    }

    fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan {
        let kernel: Arc<dyn CodeletKernel> =
            if plan.fft_plan().radix_log2() >= 2 && tables_are_canonical(plan) {
                Arc::new(SimdKernel {
                    fuse_log2: self.fuse_log2,
                    use_avx2: self.avx2_selected(),
                })
            } else {
                // Non-canonical tables or radix-2 codelets: the scalar path
                // is the correct degradation (same bits, no pattern
                // assumption).
                Arc::new(ScalarKernel)
            };
        PreparedPlan::new(plan, kernel, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};
    use crate::planner::PlanKey;
    use codelet::runtime::Runtime;
    use fgsupport::rng::Rng64;

    fn signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_f64() - 0.5, rng.gen_f64() - 0.5))
            .collect()
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn built_plans_carry_the_canonical_pattern() {
        for radix_log2 in [1, 2, 3, 4, 6] {
            let plan = Plan::build(PlanKey::with_radix(
                1 << 10,
                Version::FineGuided,
                Version::FineGuided.layout(),
                radix_log2,
            ));
            assert!(tables_are_canonical(&plan), "radix_log2={radix_log2}");
        }
    }

    /// `prepare` keeps the vector kernel for every shape it accepts: each
    /// codelet radix from 4 up, full and partial last stages, every layout
    /// and the composite kinds. A silent fall back to scalar would keep
    /// the bits and lose the speed, so no exactness test would notice.
    #[test]
    fn prepare_never_falls_back_to_scalar_on_built_plans() {
        use crate::twiddle::TwiddleLayout;
        use crate::workload::TransformKind;
        let layouts = [
            TwiddleLayout::Linear,
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ];
        let mut keys = Vec::new();
        for radix_log2 in 2..=MAX_RADIX_LOG2 {
            for n_log2 in radix_log2..=(2 * radix_log2 + 1).min(15) {
                for (version, layout) in Version::paper_set(SeedOrder::Natural)
                    .into_iter()
                    .zip(layouts.into_iter().cycle())
                {
                    keys.push(PlanKey::with_radix(
                        1 << n_log2,
                        version,
                        layout,
                        radix_log2,
                    ));
                }
            }
        }
        let planar = TransformKind::C2C2D {
            rows_log2: 5,
            cols_log2: 4,
        };
        for kind in [TransformKind::R2C, TransformKind::C2R, planar] {
            keys.push(PlanKey::with_kind(
                kind,
                1 << 9,
                Version::Coarse,
                layouts[0],
                6,
            ));
        }
        for key in keys {
            let plan = Arc::new(Plan::build(key));
            for backend in [HostSimd::new(3), HostSimd::portable(2)] {
                let label = backend.prepare(&plan).kernel.label();
                assert!(label.starts_with("simd-"), "{key:?}: {label}");
            }
        }
    }

    #[test]
    fn mutated_pairs_fail_the_canonical_check() {
        let plan = Plan::build(PlanKey::new(
            1 << 8,
            Version::Coarse,
            Version::Coarse.layout(),
        ));
        let mut pairs = plan.stage_table(0).pairs.to_vec();
        pairs.swap(0, 1);
        assert!(!pairs_are_canonical(&pairs, 64));
        assert!(pairs_are_canonical(plan.stage_table(0).pairs, 64));
        let mut slots = plan.stage_table(1).slots.to_vec();
        assert!(slots_are_canonical(&slots, 64));
        slots[40] += 1;
        assert!(!slots_are_canonical(&slots, 64));
    }

    /// Every vector variant × fusion radix × codelet radix must reproduce
    /// the scalar path bit-for-bit.
    #[test]
    fn vector_kernels_are_bit_exact_with_scalar() {
        let runtime = Runtime::with_workers(1);
        for radix_log2 in [2, 3, 4, 6] {
            for n_log2 in [radix_log2, 7, 10] {
                let key = PlanKey::with_radix(
                    1usize << n_log2,
                    Version::Fine(SeedOrder::Natural),
                    Version::Fine(SeedOrder::Natural).layout(),
                    radix_log2,
                );
                let plan = Arc::new(Plan::build(key));
                let input = signal(1 << n_log2, 0xC0FFEE + n_log2 as u64);
                let mut want = input.clone();
                plan.execute(&mut want, &runtime);
                for fuse in [2u32, 3] {
                    for backend in [HostSimd::portable(fuse), HostSimd::new(fuse)] {
                        let mut got = input.clone();
                        backend.prepare(&plan).execute(&mut got, &runtime);
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "radix_log2={radix_log2} n_log2={n_log2} fuse={fuse} {:?}",
                            backend.capabilities()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn radix2_codelets_degrade_to_scalar_and_stay_exact() {
        let runtime = Runtime::with_workers(1);
        let key = PlanKey::with_radix(1 << 6, Version::Coarse, Version::Coarse.layout(), 1);
        let plan = Arc::new(Plan::build(key));
        let input = signal(1 << 6, 7);
        let mut want = input.clone();
        plan.execute(&mut want, &runtime);
        let mut got = input.clone();
        HostSimd::new(3).prepare(&plan).execute(&mut got, &runtime);
        assert_eq!(bits(&want), bits(&got));
    }
}
