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
/// element-index slice, replay the stage's butterfly pattern against the
/// codelet's class run, scatter back. No per-call index algebra: the
/// tables are materialized once at plan-build time (see
/// [`crate::planner::Plan`]).
///
/// `gather` holds the codelet's element indices by buffer slot; `pairs` the
/// stage's local `(lo, hi)` butterfly pattern in execution order; `slots`
/// per butterfly the position of its twiddle in `run`, the distinct
/// twiddles of the codelet's class (`pairs.len() == slots.len()`).
///
/// # Safety
/// The caller upholds the dataflow discipline of the module docs for the
/// elements listed in `gather` — all parents of the codelet have completed
/// (with proper synchronization edges) and no concurrent codelet shares any
/// element — every index in `gather` is within `data`, every pair within
/// the codelet's `gather.len()`-slot buffer and every slot within `run`
/// (both read unchecked; FG402 checks them for a plan's tables).
pub unsafe fn execute_codelet_tabled(
    gather: &[u32],
    pairs: &[(u32, u32)],
    slots: &[u8],
    run: &[Complex64],
    data: &SharedData<'_>,
) {
    debug_assert_eq!(pairs.len(), slots.len());
    debug_assert!(slots.iter().all(|&s| (s as usize) < run.len()));
    debug_assert!(gather.len() <= 1 << MAX_RADIX_LOG2);
    let mut buf = [Complex64::ZERO; 1 << MAX_RADIX_LOG2];
    for (slot, &e) in gather.iter().enumerate() {
        // SAFETY: per the function contract, this codelet has exclusive
        // access to its elements.
        buf[slot] = unsafe { data.read(e as usize) };
    }
    for (&(lo, hi), &s) in pairs.iter().zip(slots) {
        let (lo, hi) = (lo as usize, hi as usize);
        debug_assert!(lo < gather.len() && hi < gather.len());
        // SAFETY: every slot is within `run` and every pair within the
        // codelet's buffer per the function contract.
        unsafe {
            let w = *run.get_unchecked(s as usize);
            let (a, c) = kernel::butterfly(*buf.get_unchecked(lo), *buf.get_unchecked(hi), w);
            *buf.get_unchecked_mut(lo) = a;
            *buf.get_unchecked_mut(hi) = c;
        }
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
        // bitwise what the index-algebra kernel computes on a safe slice,
        // stage by stage: every class map, slot pattern and partial last
        // stage, checked against an oracle that reads no plan table.
        for (n_log2, radix_log2) in [(9u32, 3u32), (12, 7), (13, 6), (16, 6)] {
            let n = 1usize << n_log2;
            let key = PlanKey::with_radix(n, Version::Coarse, TwiddleLayout::Linear, radix_log2);
            let plan = Plan::build(key);
            let (fft, tw) = (plan.fft_plan(), plan.twiddles());
            let radix = fft.radix();
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut a = input.clone();
            let mut b = input;
            for stage in 0..fft.stages() {
                let table = plan.stage_table(stage);
                for idx in 0..fft.codelets_per_stage() {
                    kernel::execute_codelet(fft, tw, &mut a, stage, idx);
                }
                let view = SharedData::new(&mut b);
                for idx in 0..fft.codelets_per_stage() {
                    // SAFETY: one thread in stage order: every parent of
                    // the codelet has completed and none runs concurrently;
                    // the plan's slots index its class runs in bounds.
                    unsafe {
                        execute_codelet_tabled(
                            &table.gather[idx * radix..(idx + 1) * radix],
                            table.pairs,
                            table.slots,
                            table.run(idx).unwrap(),
                            &view,
                        )
                    };
                }
                let same = a.iter().zip(&b).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                });
                assert!(same, "2^{n_log2}/r{radix_log2} stage {stage}");
            }
        }
    }
}
