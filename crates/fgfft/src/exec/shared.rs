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

/// Execute one codelet from *precomputed* plan tables: gather through a flat
/// element-index slice, replay the stage's butterfly pattern against a
/// per-codelet twiddle run, scatter back. No per-call index algebra: the
/// tables are materialized once at plan-build time (see
/// [`crate::planner::Plan`]).
///
/// `gather` holds the codelet's element indices by buffer slot; `pairs` the
/// stage's local `(lo, hi)` butterfly pattern in execution order; `twiddles`
/// one factor per butterfly in the same order (`pairs.len() ==
/// twiddles.len()`).
///
/// # Safety
/// The caller upholds the dataflow discipline of the module docs for the
/// elements listed in `gather` — all parents of the codelet have completed
/// (with proper synchronization edges) and no concurrent codelet shares any
/// element — and every index in `gather` is within `data`.
pub unsafe fn execute_codelet_tabled(
    gather: &[u32],
    pairs: &[(u32, u32)],
    twiddles: &[Complex64],
    data: &SharedData<'_>,
) {
    debug_assert_eq!(pairs.len(), twiddles.len());
    debug_assert!(gather.len() <= 1 << MAX_RADIX_LOG2);
    let mut buf = [Complex64::ZERO; 1 << MAX_RADIX_LOG2];
    for (slot, &e) in gather.iter().enumerate() {
        // SAFETY: per the function contract, this codelet has exclusive
        // access to its elements.
        buf[slot] = unsafe { data.read(e as usize) };
    }
    for (&(lo, hi), &w) in pairs.iter().zip(twiddles) {
        let (a, c) = kernel::butterfly(buf[lo as usize], buf[hi as usize], w);
        buf[lo as usize] = a;
        buf[hi as usize] = c;
    }
    for (slot, &e) in gather.iter().enumerate() {
        // SAFETY: as above.
        unsafe { data.write(e as usize, buf[slot]) };
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
        // The flattened tables streamed through the shared view compute
        // bitwise what the index-algebra kernel computes on a safe slice.
        let plan = Plan::build(PlanKey::new(512, Version::Coarse, TwiddleLayout::Linear));
        let (fft, tw) = (plan.fft_plan(), plan.twiddles());
        let table = plan.stage_table(0);
        let (radix, run) = (fft.radix(), table.pairs.len());
        let input: Vec<Complex64> = (0..512)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut a = input.clone();
        let mut b = input;
        for idx in 0..fft.codelets_per_stage() {
            kernel::execute_codelet(fft, tw, &mut a, 0, idx);
        }
        {
            let view = SharedData::new(&mut b);
            for idx in 0..fft.codelets_per_stage() {
                // SAFETY: one thread, stage 0 only: no codelet has parents
                // and none runs concurrently with another.
                unsafe {
                    execute_codelet_tabled(
                        &table.gather[idx * radix..(idx + 1) * radix],
                        table.pairs,
                        &table.twiddles[idx * run..(idx + 1) * run],
                        &view,
                    )
                };
            }
        }
        assert_eq!(a, b);
    }
}
