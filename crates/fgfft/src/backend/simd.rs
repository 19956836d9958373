//! The lane kernel: f64x4 (two complex lanes) butterflies addressed in
//! closed form from the stage geometry, with no gather table and no local
//! buffer.
//!
//! # Shape
//!
//! A tile is `T` consecutive codelets of one stage. The kernel runs it by
//! the stage's address generator ([`StageAddressing`]): slot `x` of
//! sub-transform `g` lives at `((g >> pj) << (pj+q)) | (x << pj) | (g &
//! (2^pj − 1))`.
//!
//! Every stage splits its `q` levels into register passes by `q` alone
//! ([`passes`]): as few passes of at most three levels as
//! possible, as even as possible, the larger first — `[2]`, `[3]`,
//! `[2, 2]`, `[3, 2]`, `[3, 3]`, `[3, 2, 2]` for `q = 2..=7`.
//!
//! * **Stage 0** (`pj = 0`): a codelet's `2^p` elements are contiguous,
//!   so each codelet runs in place on the data. Its first pass (2 or 3
//!   levels) is one register-fused radix-4 or radix-8 block whose lanes
//!   are neighbouring slots (de-interleaved for level 0); the other passes
//!   have lanes `x, x + 1`, which read consecutive twiddles.
//! * **Stages ≥ 1** (`pj ≥ p ≥ 2`): sub-transforms `g` and `g + 1` (`g`
//!   even) are adjacent at every slot, so one vector load at a slot holds
//!   that slot of both. The lanes come from the tile's consecutive
//!   codelets (full stage, one sub-transform each) or from the groups
//!   inside a partial-stage codelet. Every pass is loaded and stored
//!   straight from the data: no index
//!   load, no copy, no shuffle. Each lane's twiddle is its own class-run
//!   entry, two 128-bit loads per vector. A pass runs up to
//!   [`PASS_PAIRS`] lane pairs side by side, block by block: pairs `g` and
//!   `g + 2` share each slot's 64-byte line, so every line is used whole,
//!   and a block reads each of its slots as one run of consecutive lines
//!   (a kilobyte at full width), which keeps the large-stride last stage
//!   streaming instead of missing once per line.
//!
//! A tile of one full-stage codelet (`T = 1`, only at `N = 16` with radix
//! 4) has no partner lane; its lone sub-transform runs on the scalar
//! reference ([`execute_codelet_tabled`]).
//!
//! # Why this is sound
//!
//! The vector loads and stores are unchecked, on two verified facts:
//!
//! 1. **The generator partitions every stage.** `fgcheck`'s FG401/FG404/
//!    FG406 run the generator these kernels call and prove that each
//!    stage's addresses are in bounds, claim every element exactly once
//!    and equal [`crate::FftPlan::for_each_element`]; a Miri-gated
//!    workload test proves the same, plus the lane adjacency, for every
//!    radix at small sizes. So a tile owns exactly
//!    its codelets' elements, and its two-wide loads at `g` (even) cover
//!    `g + 1`, a sub-transform of the same tile.
//! 2. **The slot pattern and run length are canonical.** Level `ll`'s
//!    twiddle for sub-transform `g` and butterfly offset `t < 2^ll` sits at
//!    `(2^ll − 1)·G + (g mod G)·2^ll + t` of its codelet's class run, with
//!    `G = 2^(p−q)` sub-transforms per codelet (FG402/FG403/FG406 pin the
//!    tables to this shape, FG405 pins every codelet's run to the workload
//!    authority). [`Plan::build`] re-verifies the pair and slot patterns,
//!    the run lengths and the addressing once per plan
//!    ([`Plan::vector_ready`]) and [`HostSimd::prepare`] falls back to the
//!    scalar kernel on any mismatch, so the vector paths never guess.
//!
//! # Why the bits are identical
//!
//! Vectorization only batches *independent* butterflies. Lanes are
//! distinct sub-transforms (or distinct butterflies of one level), and
//! every element still passes through its levels in order `0..q` with the
//! twiddle the scalar reference multiplies it by. Each lane performs the
//! scalar sequence `mul, mul, sub/add` of [`crate::kernel::butterfly`]'s
//! complex multiply exactly (AVX2 `mul`/`mul`/`addsub`, never FMA), so
//! every backend produces the bits of the scalar path.

use super::scalar::ScalarKernel;
use super::{Backend, Capabilities, CodeletKernel, PreparedPlan};
use crate::complex::Complex64;
use crate::exec::shared::{execute_codelet_tabled, SharedData};
use crate::planner::{Plan, StageTables};
use crate::workload::{self, StageAddressing};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Two packed complex doubles (four f64 lanes): the vector register
/// abstraction the generic kernel is written against. All operations are
/// lane-wise and bit-exact with the scalar arithmetic.
trait CVec: Copy {
    /// Load two consecutive complexes from `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr+2` must be valid, initialized `Complex64`s.
    unsafe fn load(ptr: *const Complex64) -> Self;

    /// Load the complex at `lo` into lane 0 and the one at `hi` into lane 1.
    ///
    /// # Safety
    /// `lo` and `hi` must be valid, initialized `Complex64`s.
    unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self;

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
    unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self {
        // SAFETY: contract forwarded from the trait.
        unsafe { Self([lo.read(), hi.read()]) }
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
        unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self {
            // SAFETY: one `Complex64` is two consecutive f64s; contract
            // forwarded. Two 128-bit loads, the second inserted into the
            // upper half.
            unsafe {
                Self(_mm256_set_m128d(
                    _mm_loadu_pd(hi as *const f64),
                    _mm_loadu_pd(lo as *const f64),
                ))
            }
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
            // type (`tile_avx2` is only entered behind runtime
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

/// Whether the vector kernel may run `plan`: codelets of at least four
/// points and canonical tables ([`tables_are_canonical`]). [`Plan::build`]
/// evaluates this once and stores it as [`Plan::vector_ready`].
pub(crate) fn vector_ready(plan: &Plan) -> bool {
    plan.fft_plan().radix_log2() >= 2 && tables_are_canonical(plan)
}

/// Whether every stage of `plan` (and of a 2-D plan's column plan, which
/// runs on the same kernel) carries the workload layer's addressing and
/// the canonical butterfly and slot patterns over class runs of the
/// canonical length (the precondition of the lane kernel's passes).
pub(crate) fn tables_are_canonical(plan: &Plan) -> bool {
    let fft = plan.fft_plan();
    let radix = 1usize << fft.radix_log2();
    plan.col_plan().is_none_or(tables_are_canonical)
        && (0..fft.stages()).all(|s| {
            let table = plan.stage_tables(s);
            let q = fft.levels(s);
            table.addressing == StageAddressing::of(fft, s)
                && pairs_are_canonical(table.pairs, radix)
                && slots_are_canonical(table.slots, radix)
                && table.slots.len() == table.pairs.len()
                && table.run_len() == ((1usize << q) - 1) * (radix >> q)
        })
}

/// A stage's register passes: its `q` levels split into as few passes of
/// at most three levels as possible, as even as possible and the larger
/// first, as `(first level, levels)` per pass.
fn passes(q: u32) -> impl Iterator<Item = (u32, u32)> {
    let count = q.div_ceil(3).max(1);
    let (size, extra) = (q / count, q % count);
    (0..count).scan(0, move |l0, i| {
        let r = size + u32::from(i < extra);
        let pass = (*l0, r);
        *l0 += r;
        Some(pass)
    })
}

/// One register-resident block of a pass over `R ∈ 1..=3` levels: the
/// `2^R` vectors at `p[k]` go through levels `s = 0..R` in order; level
/// `s` pairs `k` (bit `s` clear) with `k + 2^s` and multiplies by
/// `tw(s, k mod 2^s)`. Each lane is an independent sequence of scalar
/// butterflies.
///
/// # Safety
/// Each `p[k]`, `k < 2^R`, must address two valid complexes owned by the
/// caller, pairwise disjoint; `tw` must only load valid twiddles.
#[inline(always)]
unsafe fn block<V: CVec, const R: u32>(p: &[*mut Complex64; 8], tw: impl Fn(u32, usize) -> V) {
    // SAFETY: per the function contract.
    unsafe {
        if R == 1 {
            let (v0, v1) = bfly(V::load(p[0]), V::load(p[1]), tw(0, 0));
            v0.store(p[0]);
            v1.store(p[1]);
        } else if R == 2 {
            let (v0, v1, v2, v3) = (V::load(p[0]), V::load(p[1]), V::load(p[2]), V::load(p[3]));
            let w = tw(0, 0);
            let (v0, v1) = bfly(v0, v1, w);
            let (v2, v3) = bfly(v2, v3, w);
            let (v0, v2) = bfly(v0, v2, tw(1, 0));
            let (v1, v3) = bfly(v1, v3, tw(1, 1));
            v0.store(p[0]);
            v1.store(p[1]);
            v2.store(p[2]);
            v3.store(p[3]);
        } else {
            let (v0, v1, v2, v3) = (V::load(p[0]), V::load(p[1]), V::load(p[2]), V::load(p[3]));
            let (v4, v5, v6, v7) = (V::load(p[4]), V::load(p[5]), V::load(p[6]), V::load(p[7]));
            let w = tw(0, 0);
            let (v0, v1) = bfly(v0, v1, w);
            let (v2, v3) = bfly(v2, v3, w);
            let (v4, v5) = bfly(v4, v5, w);
            let (v6, v7) = bfly(v6, v7, w);
            let (wa, wb) = (tw(1, 0), tw(1, 1));
            let (v0, v2) = bfly(v0, v2, wa);
            let (v1, v3) = bfly(v1, v3, wb);
            let (v4, v6) = bfly(v4, v6, wa);
            let (v5, v7) = bfly(v5, v7, wb);
            let (v0, v4) = bfly(v0, v4, tw(2, 0));
            let (v1, v5) = bfly(v1, v5, tw(2, 1));
            let (v2, v6) = bfly(v2, v6, tw(2, 2));
            let (v3, v7) = bfly(v3, v7, tw(2, 3));
            v0.store(p[0]);
            v1.store(p[1]);
            v2.store(p[2]);
            v3.store(p[3]);
            v4.store(p[4]);
            v5.store(p[5]);
            v6.store(p[6]);
            v7.store(p[7]);
        }
    }
}

/// The first element of level `ll`'s twiddles for sub-transform `g` in
/// its codelet's class run: `(2^ll − 1)·G + (g mod G)·2^ll` past the run
/// start ([`workload::twiddle_slot`] with the butterfly offset left out).
///
/// # Safety
/// `g` must be a sub-transform of the stage and `ll < q`; the tables must
/// be canonical ([`tables_are_canonical`]).
#[inline(always)]
unsafe fn level_twiddles(tables: &StageTables<'_>, g: usize, ll: u32) -> *const Complex64 {
    let a = tables.addressing;
    // Canonical tables hold a power-of-two class count: a shift, not the
    // division of `run_len`.
    let run_len = tables.twiddles.len() >> tables.classes.trailing_zeros();
    debug_assert_eq!(run_len, tables.run_len());
    let class = tables.class_of(g >> a.groups_log2);
    let g_rel = g & (a.groups() - 1);
    let at = class * run_len + (((1usize << ll) - 1) << a.groups_log2) + (g_rel << ll);
    debug_assert!(at + (1 << ll) <= tables.twiddles.len());
    // SAFETY: in bounds by the canonical run shape (see the contract).
    unsafe { tables.twiddles.as_ptr().add(at) }
}

/// Lane pairs a pass runs side by side: 32 pairs are 64 sub-transforms,
/// one kilobyte of consecutive elements per slot.
const PASS_PAIRS: usize = 32;

/// One pass over levels `l0..l0+R` of the lane pairs `g, g + 1` for `g`
/// in `pairs` (stage ≥ 1, even `g`): for every slot block of the pass,
/// each pair in turn loads its `2^R` two-lane vectors at the generator's
/// addresses, runs them through the block and stores them back. Pairs
/// `g` and `g + 2` share each slot's cache line and run back to back, so
/// a block reads each slot as one run of consecutive lines.
///
/// # Safety
/// The caller owns sub-transforms `g, g + 1` for every `g` in `pairs`,
/// `data` spans the stage, and the tables are canonical.
#[inline(always)]
unsafe fn lane_pass<V: CVec, const R: u32>(
    tables: &StageTables<'_>,
    data: *mut Complex64,
    pairs: &[usize],
    l0: u32,
) {
    let a = tables.addressing;
    // Per pair and level of the pass, each lane's twiddle segment.
    let mut segs = [[(std::ptr::null(), std::ptr::null()); 3]; PASS_PAIRS];
    for (seg, &g) in segs.iter_mut().zip(pairs) {
        for (s, lanes) in seg.iter_mut().enumerate().take(R as usize) {
            let ll = l0 + s as u32;
            // SAFETY: `g + 1` is a sub-transform and `ll < q` (contract).
            *lanes = unsafe {
                (
                    level_twiddles(tables, g, ll),
                    level_twiddles(tables, g + 1, ll),
                )
            };
        }
    }
    let low_mask = (1usize << l0) - 1;
    for o in 0..1usize << (a.levels - R) {
        // `base` is the block's first slot: `o` with `R` zero bits
        // inserted at `l0`; `low` its offset below the pass's levels.
        let low = o & low_mask;
        let base = ((o >> l0) << (l0 + R)) | low;
        for (seg, &g) in segs.iter().zip(pairs) {
            let mut p = [std::ptr::null_mut(); 8];
            for (k, slot) in p.iter_mut().enumerate().take(1 << R) {
                let e = a.element(g, base | (k << l0));
                debug_assert!(e & 1 == 0 && a.element(g + 1, base | (k << l0)) == e + 1);
                // SAFETY: the generator's addresses are in bounds.
                *slot = unsafe { data.add(e) };
            }
            // SAFETY: the pair owns these elements (contract); the
            // twiddle offsets `low + j·2^l0 < 2^ll` stay in each segment.
            unsafe {
                block::<V, R>(&p, |s, j| {
                    let t = low + (j << l0);
                    let (w0, w1) = seg[s as usize];
                    V::load2(w0.add(t), w1.add(t))
                })
            };
        }
    }
}

/// Every level of sub-transforms `groups` (even bounds), [`PASS_PAIRS`]
/// lane pairs at a time, pass by pass.
///
/// # Safety
/// As [`lane_pass`].
#[inline(always)]
unsafe fn lane_pairs<V: CVec>(
    tables: &StageTables<'_>,
    data: *mut Complex64,
    groups: Range<usize>,
) {
    let (mut pairs, end) = ([0usize; PASS_PAIRS], groups.end);
    for chunk in groups
        .step_by(2 * PASS_PAIRS)
        .map(|g| g..(g + 2 * PASS_PAIRS).min(end))
    {
        let pairs = &mut pairs[..chunk.len() / 2];
        for (p, g) in pairs.iter_mut().zip(chunk.step_by(2)) {
            *p = g;
        }
        for (l0, r) in passes(tables.addressing.levels) {
            // SAFETY: forwarded.
            unsafe {
                match r {
                    3 => lane_pass::<V, 3>(tables, data, pairs, l0),
                    2 => lane_pass::<V, 2>(tables, data, pairs, l0),
                    _ => lane_pass::<V, 1>(tables, data, pairs, l0),
                }
            }
        }
    }
}

/// A stage-0 codelet, in place on its contiguous elements, pass by pass
/// of [`passes`]: the first pass (`f` = 2 or 3 levels) fused over
/// blocks of `2^f` neighbouring slots with de-interleaved lanes, the
/// others with lanes `x, x + 1`, which read consecutive twiddles.
///
/// # Safety
/// The caller owns codelet `idx`'s elements, `data` spans the stage, the
/// tables are canonical and the stage is stage 0 (`q = p ≥ 2`).
#[inline(always)]
unsafe fn stage0_codelet<V: CVec>(tables: &StageTables<'_>, data: *mut Complex64, idx: usize) {
    let a = tables.addressing;
    let q = a.levels;
    debug_assert!(a.stride_log2 == 0 && a.groups_log2 == 0 && q >= 2);
    // SAFETY: a stage-0 codelet is one sub-transform (`G = 1`).
    let seg = |ll: u32| unsafe { level_twiddles(tables, idx, ll) };
    let at = |x: usize| {
        // SAFETY: the generator's addresses are in bounds.
        unsafe { data.add(a.element(idx, x)) }
    };
    // The first pass is the fused block: 2 or 3 levels, since `q ≥ 2`.
    let mut split = passes(q);
    let fused = split.next().map_or(0, |(_, r)| r);
    debug_assert!(fused == 2 || fused == 3);
    // SAFETY (all loads and stores below): the codelet owns its `2^q`
    // contiguous elements; twiddle offsets stay inside each level's
    // `2^ll` values by the same algebra as `lane_pass`.
    unsafe {
        if fused == 3 {
            // Radix-8 over slots 8j..8j+8. Level 0: pairs (0,1),(2,3),...
            // de-interleaved; levels 1 and 2 are register-aligned.
            let (w0, w1) = (V::splat(seg(0)), V::load(seg(1)));
            let (w2a, w2b) = (V::load(seg(2)), V::load(seg(2).add(2)));
            for j in 0..1usize << (q - 3) {
                let p = at(8 * j);
                let (v0, v1) = (V::load(p), V::load(p.add(2)));
                let (v2, v3) = (V::load(p.add(4)), V::load(p.add(6)));
                let (a0, b0) = bfly(V::lo_lo(v0, v1), V::hi_hi(v0, v1), w0);
                let (a1, b1) = bfly(V::lo_lo(v2, v3), V::hi_hi(v2, v3), w0);
                let (v0, v1) = (V::lo_lo(a0, b0), V::hi_hi(a0, b0));
                let (v2, v3) = (V::lo_lo(a1, b1), V::hi_hi(a1, b1));
                let (v0, v1) = bfly(v0, v1, w1);
                let (v2, v3) = bfly(v2, v3, w1);
                let (v0, v2) = bfly(v0, v2, w2a);
                let (v1, v3) = bfly(v1, v3, w2b);
                v0.store(p);
                v1.store(p.add(2));
                v2.store(p.add(4));
                v3.store(p.add(6));
            }
        } else {
            // Radix-4 over slots 4m..4m+4.
            let (w0, w1) = (V::splat(seg(0)), V::load(seg(1)));
            for m in 0..1usize << (q - 2) {
                let p = at(4 * m);
                let (v0, v1) = (V::load(p), V::load(p.add(2)));
                let (a0, b0) = bfly(V::lo_lo(v0, v1), V::hi_hi(v0, v1), w0);
                let (v0, v1) = bfly(V::lo_lo(a0, b0), V::hi_hi(a0, b0), w1);
                v0.store(p);
                v1.store(p.add(2));
            }
        }
        for (l0, r) in split {
            let low_mask = (1usize << l0) - 1;
            let mut segs = [std::ptr::null(); 3];
            for (s, w) in segs.iter_mut().enumerate().take(r as usize) {
                *w = seg(l0 + s as u32);
            }
            // `o` even: a vector holds slots `x, x + 1` of the block.
            for o in (0..1usize << (q - r)).step_by(2) {
                let low = o & low_mask;
                let base = ((o >> l0) << (l0 + r)) | low;
                let mut p = [std::ptr::null_mut(); 8];
                for (k, slot) in p.iter_mut().enumerate().take(1 << r) {
                    *slot = at(base | (k << l0));
                }
                let tw = |s: u32, j: usize| V::load(segs[s as usize].add(low + (j << l0)));
                match r {
                    3 => block::<V, 3>(&p, tw),
                    2 => block::<V, 2>(&p, tw),
                    _ => block::<V, 1>(&p, tw),
                }
            }
        }
    }
}

/// The lane kernel over one tile: stage 0 codelet by codelet in place,
/// stages ≥ 1 as lane pairs of consecutive sub-transforms, up to
/// [`PASS_PAIRS`] side by side.
///
/// # Safety
/// The [`CodeletKernel::run_tile`] contract, **plus** the plan is
/// [`vector_ready`] (verified once per plan by [`Plan::build`]).
#[inline(always)]
unsafe fn tile_vec<V: CVec>(
    tables: &StageTables<'_>,
    codelets: Range<usize>,
    view: &SharedData<'_>,
) {
    let a = tables.addressing;
    debug_assert!(view.len() >= codelets.end << (a.levels + a.groups_log2));
    let data = view.as_ptr();
    if a.stride_log2 == 0 {
        for idx in codelets {
            // SAFETY: forwarded; the tile owns codelet `idx`.
            unsafe { stage0_codelet::<V>(tables, data, idx) };
        }
        return;
    }
    // Sub-transforms `g0..g1`; with one per codelet (`G = 1`) an odd end
    // has no partner lane and runs on the scalar reference.
    let (mut g0, mut g1) = (
        codelets.start << a.groups_log2,
        codelets.end << a.groups_log2,
    );
    if g0 & 1 == 1 {
        // SAFETY: forwarded; `G = 1`, so `g0` is codelet `g0`.
        unsafe { execute_codelet_tabled(tables, g0, view) };
        g0 += 1;
    }
    if g1 > g0 && g1 & 1 == 1 {
        g1 -= 1;
        // SAFETY: as above.
        unsafe { execute_codelet_tabled(tables, g1, view) };
    }
    if g1 > g0 {
        // SAFETY: forwarded; every `g, g + 1` is in the tile.
        unsafe { lane_pairs::<V>(tables, data, g0..g1) };
    }
}

/// AVX2 entry point. The whole kernel is compiled with the feature
/// enabled so every wrapper above inlines down to raw vector instructions.
///
/// # Safety
/// As [`tile_vec`]; additionally the CPU must support AVX2 (the caller
/// checks `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(tables: &StageTables<'_>, codelets: Range<usize>, view: &SharedData<'_>) {
    // SAFETY: forwarded.
    unsafe { tile_vec::<x86::Avx2>(tables, codelets, view) }
}

/// The vector kernel with its dispatch decision baked in. There are two,
/// one per ISA, both process-wide statics ([`SIMD_KERNELS`]), so preparing
/// a plan allocates nothing.
#[derive(Debug)]
struct SimdKernel {
    use_avx2: bool,
}

/// `SIMD_KERNELS[use_avx2]`.
static SIMD_KERNELS: [SimdKernel; 2] = [
    SimdKernel { use_avx2: false },
    SimdKernel { use_avx2: true },
];

/// Whether this process runs the AVX2 kernel: the build has the `simd`
/// feature, `FGFFT_SIMD` is not `portable`, and the CPU has AVX2. Decided
/// on first use and fixed for the life of the process.
fn avx2_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if !cfg!(feature = "simd")
            || std::env::var_os("FGFFT_SIMD").is_some_and(|v| v == "portable")
        {
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
    })
}

impl CodeletKernel for SimdKernel {
    fn label(&self) -> &'static str {
        if self.use_avx2 {
            "simd-avx2"
        } else {
            "simd-portable"
        }
    }

    fn fingerprint(&self) -> &'static str {
        if self.use_avx2 {
            "host-simd:avx2x2"
        } else {
            "host-simd:portablex2"
        }
    }

    #[inline]
    unsafe fn run_tile(
        &self,
        tables: &StageTables<'_>,
        codelets: Range<usize>,
        view: &SharedData<'_>,
    ) {
        // The pairs and slots are the canonical patterns `Plan::build`
        // verified; the lane passes compute them instead of reading them.
        debug_assert!(slots_are_canonical(
            tables.slots,
            tables.addressing.groups() << tables.addressing.levels
        ));
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: forwarded; `use_avx2` implies runtime detection
            // succeeded, and this kernel is only handed plans that
            // `Plan::build` found vector-ready.
            return unsafe { tile_avx2(tables, codelets, view) };
        }
        // SAFETY: forwarded, as above.
        unsafe { tile_vec::<Portable>(tables, codelets, view) }
    }
}

/// SIMD host backend: vectorized butterflies on the serial certified
/// schedule.
///
/// `prepare` reads the plan's build-time check that its tables carry the
/// canonical pattern (see the module docs) and silently degrades to the
/// scalar path when they don't or when the codelet radix is too small to
/// vectorize — a prepared plan is always correct, never merely fast.
#[derive(Debug, Clone, Default)]
pub struct HostSimd {
    force_portable: bool,
}

impl HostSimd {
    /// The vector backend. Uses AVX2 when the build (crate feature
    /// `simd`), the CPU, and the `FGFFT_SIMD` environment override all
    /// allow it (decided once per process); the portable four-lane kernel
    /// otherwise.
    pub fn new() -> Self {
        Self::default()
    }

    /// As [`HostSimd::new`] but pinned to the portable kernel, regardless
    /// of CPU features — what `FGFFT_SIMD=portable` selects globally.
    pub fn portable() -> Self {
        Self {
            force_portable: true,
        }
    }

    fn avx2_selected(&self) -> bool {
        !self.force_portable && avx2_enabled()
    }

    /// The kernel this backend runs `plan` with: its vector kernel when
    /// the plan is [`Plan::vector_ready`], the scalar kernel otherwise
    /// (same bits, no pattern assumption).
    pub(crate) fn kernel_for(&self, plan: &Plan) -> &'static dyn CodeletKernel {
        if plan.vector_ready() {
            &SIMD_KERNELS[usize::from(self.avx2_selected())]
        } else {
            &ScalarKernel
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
        PreparedPlan::new(plan, self.kernel_for(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HostScalar;
    use crate::exec::{SeedOrder, Version};
    use crate::plan::MAX_RADIX_LOG2;
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
            assert_eq!(plan.vector_ready(), radix_log2 >= 2);
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
            for backend in [HostSimd::new(), HostSimd::portable()] {
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
        let mut pairs = plan.stage_tables(0).pairs.to_vec();
        pairs.swap(0, 1);
        assert!(!pairs_are_canonical(&pairs, 64));
        assert!(pairs_are_canonical(plan.stage_tables(0).pairs, 64));
        let mut slots = plan.stage_tables(1).slots.to_vec();
        assert!(slots_are_canonical(&slots, 64));
        slots[40] += 1;
        assert!(!slots_are_canonical(&slots, 64));
    }

    /// Both vector variants × every codelet radix must reproduce the
    /// scalar path bit-for-bit.
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
                for backend in [HostSimd::portable(), HostSimd::new()] {
                    let mut got = input.clone();
                    backend.prepare(&plan).execute(&mut got, &runtime);
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "radix_log2={radix_log2} n_log2={n_log2} {:?}",
                        backend.capabilities()
                    );
                }
            }
        }
    }

    /// Each level count has one pass split, the fastest measured: radix-8
    /// passes where they divide the levels evenly enough, two radix-4
    /// passes at `q = 4`. Passes cover levels `0..q` in order.
    #[test]
    fn lane_kernel_pass_split_follows_the_level_count() {
        let want: [&[u32]; 6] = [&[2], &[3], &[2, 2], &[3, 2], &[3, 3], &[3, 2, 2]];
        for (q, want) in (2u32..=7).zip(want) {
            let split: Vec<(u32, u32)> = passes(q).collect();
            let sizes: Vec<u32> = split.iter().map(|&(_, r)| r).collect();
            assert_eq!(sizes, want, "q = {q}");
            let mut l0 = 0;
            for (first, r) in split {
                assert_eq!(first, l0, "q = {q}");
                l0 += r;
            }
            assert_eq!(l0, q);
        }
    }

    /// The lane kernel stage by stage against the scalar reference, on
    /// every shape it has: tiles of 1, 2, 4 and 64 codelets (one lone
    /// full-stage sub-transform at N = 16 with radix 4), partial last
    /// stages of 2 to 64 sub-transforms per codelet, every codelet radix
    /// from 4 to 128 (so every pass split of `q = 2..=7` levels, in stage 0
    /// and in later stages), native and portable. Each stage
    /// starts from the scalar reference's previous stage, so a drift is
    /// pinned to the stage that made it.
    #[test]
    fn lane_kernel_matches_the_scalar_reference_stage_by_stage() {
        let mut tile_lens = std::collections::BTreeSet::new();
        let mut groups = std::collections::BTreeSet::new();
        let shapes = [
            (4u32, 2u32),
            (5, 2),
            (6, 2),
            (7, 3),
            (10, 3),
            (8, 4),
            (12, 4),
            (9, 5),
            (13, 5),
            (13, 6),
            (14, 6),
            (15, 6),
            (18, 6),
            (11, 7),
            (15, 7),
        ];
        for (n_log2, radix_log2) in shapes {
            let key = PlanKey::with_radix(
                1 << n_log2,
                Version::FineGuided,
                Version::FineGuided.layout(),
                radix_log2,
            );
            let plan = Arc::new(Plan::build(key));
            let fft = *plan.fft_plan();
            tile_lens.insert(plan.tiles().tile_len());
            let scalar = HostScalar.prepare(&plan);
            let mut want = signal(fft.n(), u64::from(n_log2));
            for stage in 0..fft.stages() {
                groups.insert(plan.stage_tables(stage).addressing.groups());
                let input = want.clone();
                scalar.run_stage(&mut want, stage);
                for backend in [HostSimd::portable(), HostSimd::new()] {
                    let prepared = backend.prepare(&plan);
                    assert!(prepared.kernel.label().starts_with("simd-"));
                    let mut got = input.clone();
                    prepared.run_stage(&mut got, stage);
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "2^{n_log2} radix 2^{radix_log2} stage {stage} {}",
                        prepared.kernel.label()
                    );
                }
            }
        }
        for t in [1, 2, 4, 64] {
            assert!(tile_lens.contains(&t), "tile of {t}: {tile_lens:?}");
        }
        for g in [1, 2, 4, 8, 16, 32, 64] {
            assert!(groups.contains(&g), "{g} sub-transforms: {groups:?}");
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
        let prepared = HostSimd::new().prepare(&plan);
        prepared.execute(&mut got, &runtime);
        assert_eq!(bits(&want), bits(&got));
        // The fingerprint names the kernel that ran, not the backend that
        // was asked.
        assert!(!plan.vector_ready());
        assert_eq!(prepared.backend_fingerprint(), HostScalar.fingerprint());
        assert_eq!(
            HostSimd::portable().prepare(&plan).backend_fingerprint(),
            "host-scalar:scalarx1"
        );
    }
}
