//! A shared-mutable view of the data array for dataflow-disciplined access.
//!
//! A plan's dispatch runs codelets from many threads over one `&mut
//! [Complex64]`. Rust cannot see that the dataflow discipline makes those
//! accesses exclusive, so every codelet goes through this raw view. The
//! safety argument, once, in full:
//!
//! * Within one stage, codelets own **disjoint** element sets (the plan's
//!   `elements_partition_every_stage` property).
//! * Across stages, if codelets `a` (stage `j`) and `b` (stage `j' > j`)
//!   touch a common element `e`, then the ownership chain of `e` through
//!   stages `j, j+1, …, j'` is a dependence path from `a` to `b` (each
//!   owner is a child of the previous one because they share `e`).
//!   The runtime fires `b` only after that whole path completed, with
//!   acquire/release edges through the dependence counters and the ready
//!   pool, so `a`'s writes are visible to and ordered before `b`'s accesses.
//! * Phased executors (coarse, guided) separate their phases by barriers /
//!   thread-scope joins, which are stronger than the above.
//!
//! Hence no two threads ever access the same element concurrently, and
//! every read observes the writes of the codelet that produced the value.

use crate::complex::Complex64;
use crate::kernel;
use crate::plan::MAX_RADIX_LOG2;
use crate::planner::{run_scratch, StageTables};
#[cfg(doc)]
use crate::workload::StageAddressing;
use std::marker::PhantomData;

/// Raw shared view over the FFT data array. See the module docs for the
/// access discipline that makes the `unsafe` accessors sound.
pub struct SharedData<'a> {
    ptr: *mut Complex64,
    len: usize,
    _marker: PhantomData<&'a mut [Complex64]>,
}

// SAFETY: the view is only used under the dataflow discipline documented in
// the module docs; the pointer itself is freely sendable/shareable.
unsafe impl Sync for SharedData<'_> {}
unsafe impl Send for SharedData<'_> {}

impl<'a> SharedData<'a> {
    /// Wrap a uniquely-borrowed slice. The borrow is held for `'a`, so no
    /// safe code can alias the data while views exist.
    pub fn new(data: &'a mut [Complex64]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying array.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first element, for kernels that issue their own (vector) loads
    /// and stores under the same discipline as [`SharedData::read`] and
    /// [`SharedData::write`].
    #[inline]
    pub(crate) fn as_ptr(&self) -> *mut Complex64 {
        self.ptr
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i < len`, and no thread writes element `i` concurrently.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> Complex64 {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i < len`, and no other thread accesses element `i` concurrently.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: Complex64) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Execute codelet `idx` of a stage from its plan tables — the scalar
/// reference every kernel is held to: gather the codelet's elements into
/// a local buffer by the stage's address generator
/// ([`StageAddressing::codelet_element`]), apply the stage's butterflies
/// ([`StageAddressing::for_each_butterfly`]) with the twiddles of the
/// codelet's run ([`StageTables::run`]: its class run, or the values it
/// reads from the base table), scatter back.
///
/// # Safety
/// The caller upholds the dataflow discipline of the module docs for the
/// elements the generator assigns codelet `idx` — all parents of the
/// codelet have completed (with proper synchronization edges) and no
/// concurrent codelet shares any element — `data` spans the stage's
/// `2^n` elements and `idx` is a codelet of the stage.
pub unsafe fn execute_codelet_tabled(tables: &StageTables<'_>, idx: usize, data: &SharedData<'_>) {
    let addr = tables.addressing;
    let mut scratch = run_scratch();
    let run = tables.run(idx, &mut scratch).expect("run in bounds");
    // Buffer slot `s` is slot `s mod 2^q` of sub-transform
    // `idx·2^(p−q) + (s >> q)` ([`StageAddressing::codelet_element`]).
    let groups = idx << addr.groups_log2..(idx + 1) << addr.groups_log2;
    let mut buf = [Complex64::ZERO; 1 << MAX_RADIX_LOG2];
    let buf = &mut buf[..addr.groups() << addr.levels];
    for (g, chunk) in groups.clone().zip(buf.chunks_exact_mut(1 << addr.levels)) {
        for (x, v) in chunk.iter_mut().enumerate() {
            // SAFETY: per the function contract, this codelet has
            // exclusive access to its elements, which are in bounds.
            *v = unsafe { data.read(addr.element(g, x)) };
        }
    }
    addr.for_each_butterfly(buf, run, |lo, hi, &w| {
        (*lo, *hi) = kernel::butterfly(*lo, *hi, w);
    });
    for (g, chunk) in groups.zip(buf.chunks_exact(1 << addr.levels)) {
        for (x, &v) in chunk.iter().enumerate() {
            // SAFETY: as above.
            unsafe { data.write(addr.element(g, x), v) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Version;
    use crate::planner::{Plan, PlanKey};
    use crate::twiddle::TwiddleLayout;

    #[test]
    fn shared_view_reads_and_writes() {
        let mut v = vec![Complex64::ZERO; 4];
        let s = SharedData::new(&mut v);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        unsafe {
            s.write(2, Complex64::new(1.0, -1.0));
            assert_eq!(s.read(2), Complex64::new(1.0, -1.0));
            assert_eq!(s.read(0), Complex64::ZERO);
        }
    }

    #[test]
    fn shared_codelet_matches_safe_kernel() {
        // The plan's tables, address generator and computed butterfly
        // pattern, run through the shared view, compute bitwise what the
        // index-algebra kernel computes on a safe slice, stage by stage:
        // every radix 2^1..2^7 at every size up to 2^12 (so every partial
        // last stage), under all three layouts (shared class runs and the
        // unshared stage read from the base table), checked against an
        // oracle that reads no plan table.
        let layouts = [
            TwiddleLayout::Linear,
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ];
        let shapes = (1..=MAX_RADIX_LOG2).flat_map(|r| (r..=12).map(move |n| (n, r)));
        for ((n_log2, radix_log2), layout) in
            shapes.flat_map(|shape| layouts.map(|layout| (shape, layout)))
        {
            let n = 1usize << n_log2;
            let key = PlanKey::with_radix(n, Version::Coarse, layout, radix_log2);
            let plan = Plan::build(key);
            let (fft, tw) = (plan.fft_plan(), plan.twiddles());
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut a = input.clone();
            let mut b = input;
            for stage in 0..fft.stages() {
                let table = plan.stage_tables(stage);
                for idx in 0..fft.codelets_per_stage() {
                    kernel::execute_codelet(fft, tw, &mut a, stage, idx);
                }
                let view = SharedData::new(&mut b);
                for idx in 0..fft.codelets_per_stage() {
                    // SAFETY: one thread in stage order: every parent of
                    // the codelet has completed and none runs concurrently.
                    unsafe { execute_codelet_tabled(&table, idx, &view) };
                }
                let same = a.iter().zip(&b).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                });
                assert!(same, "2^{n_log2}/r{radix_log2} {layout:?} stage {stage}");
            }
        }
    }
}
