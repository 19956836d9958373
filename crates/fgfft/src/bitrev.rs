//! Bit-reversal: the permutation that precedes every decimation-in-time FFT
//! here, and — reused as a cheap "perfect enough" hash — the paper's
//! Sec. IV-B address randomization for the twiddle-factor array (C64 has a
//! hardware bit-reverse instruction, which is why the paper picked it).

use crate::complex::Complex64;
use std::thread;

/// Reverse the low `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// In-place bit-reversal permutation of a power-of-two-length slice.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    if n <= 2 {
        return;
    }
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Parallel in-place bit-reversal permutation, as the paper's
/// "`Bit_reversal(D)` in parallel" first step.
///
/// Index range is partitioned into contiguous chunks; the worker owning the
/// chunk of `i` performs the `(i, rev(i))` swap iff `i < rev(i)`, so every
/// pair is swapped by exactly one worker and no element is touched twice —
/// which is what makes the disjoint `&mut` access below sound.
pub fn bit_reverse_permute_parallel(data: &mut [Complex64], workers: usize) {
    let n = data.len();
    if n <= 2 || workers <= 1 {
        bit_reverse_permute(data);
        return;
    }
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    let workers = workers.min(n);
    let chunk = n.div_ceil(workers);
    let shared = SharedComplexSlice::new(data);
    thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            scope.spawn(move || {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                for i in lo..hi {
                    let j = bit_reverse(i, bits);
                    if i < j {
                        // SAFETY: the (i, j) pair with i < j is visited by
                        // exactly one worker (the owner of i's chunk); the
                        // mirrored pair (j, i) is skipped by the j-chunk
                        // owner because rev(j) = i < j. Hence exclusive
                        // access to both elements.
                        unsafe {
                            let a = shared.get(i);
                            let b = shared.get(j);
                            std::ptr::swap(a, b);
                        }
                    }
                }
            });
        }
    });
}

/// Precompute the transposition list of the bit-reversal permutation of a
/// power-of-two length `n`: every pair `(i, rev(i))` with `i < rev(i)`,
/// in ascending `i`. Applying the swaps (in any order — they are disjoint)
/// performs the permutation without recomputing `rev` per element, which is
/// what a cached execution plan stores.
pub fn bit_reverse_swaps(n: usize) -> Vec<(u32, u32)> {
    if n <= 2 {
        return Vec::new();
    }
    assert!(n.is_power_of_two(), "length must be a power of two");
    assert!(n <= u32::MAX as usize + 1, "swap table indexes with u32");
    let bits = n.trailing_zeros();
    let mut swaps = Vec::with_capacity(n / 2);
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            swaps.push((i as u32, j as u32));
        }
    }
    swaps
}

/// Apply a precomputed transposition list serially.
pub fn apply_swaps<T>(data: &mut [T], swaps: &[(u32, u32)]) {
    for &(i, j) in swaps {
        data.swap(i as usize, j as usize);
    }
}

/// Apply a precomputed transposition list with `workers` workers, the
/// calling thread being worker 0 (it takes the first chunk; one thread is
/// spawned per remaining chunk). Sound for any list of pairwise-disjoint
/// transpositions (which [`bit_reverse_swaps`] produces): partitioning the
/// *list* partitions the touched elements, so no two workers access the
/// same element.
pub fn apply_swaps_parallel(data: &mut [Complex64], swaps: &[(u32, u32)], workers: usize) {
    if workers <= 1 || swaps.len() < 1024 {
        apply_swaps(data, swaps);
        return;
    }
    let workers = workers.min(swaps.len());
    let chunk = swaps.len().div_ceil(workers);
    let shared = SharedComplexSlice::new(data);
    let apply = |part: &[(u32, u32)]| {
        for &(i, j) in part {
            // SAFETY: transpositions are pairwise disjoint and the list is
            // partitioned across workers, so this worker has exclusive
            // access to elements i and j.
            unsafe {
                std::ptr::swap(shared.get(i as usize), shared.get(j as usize));
            }
        }
    };
    let (first, rest) = swaps.split_at(chunk);
    thread::scope(|scope| {
        for part in rest.chunks(chunk) {
            scope.spawn(move || apply(part));
        }
        apply(first);
    });
}

/// Minimal shared-mutable slice used by the parallel permutation. The
/// invariant (each index touched by exactly one worker) is established by
/// the caller.
struct SharedComplexSlice {
    ptr: *mut Complex64,
    len: usize,
}

// SAFETY: access discipline is enforced by callers (disjoint index sets per
// thread); the raw pointer itself is freely sendable.
unsafe impl Sync for SharedComplexSlice {}

impl SharedComplexSlice {
    fn new(data: &mut [Complex64]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// # Safety
    /// `i < len` and no other thread accesses index `i` concurrently.
    unsafe fn get(&self, i: usize) -> *mut Complex64 {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_small_patterns() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b011, 3), 0b110);
        assert_eq!(bit_reverse(0b111, 3), 0b111);
        assert_eq!(bit_reverse(1, 1), 1);
        assert_eq!(bit_reverse(0, 0), 0);
    }

    #[test]
    fn reverse_is_involution() {
        for bits in 1..16 {
            for x in (0..1usize << bits).step_by(7) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn reverse_is_bijection() {
        let bits = 10;
        let mut seen = vec![false; 1 << bits];
        for x in 0..1 << bits {
            let r = bit_reverse(x, bits);
            assert!(!seen[r]);
            seen[r] = true;
        }
    }

    #[test]
    fn permute_length_8() {
        let mut v: Vec<u32> = (0..8).collect();
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn permute_twice_is_identity() {
        let mut v: Vec<u32> = (0..64).collect();
        bit_reverse_permute(&mut v);
        bit_reverse_permute(&mut v);
        assert_eq!(v, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn permute_small_slices_are_noops() {
        let mut v = vec![1u8, 2];
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![1, 2]);
        let mut v = vec![5u8];
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![5]);
        let mut v: Vec<u8> = vec![];
        bit_reverse_permute(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn permute_rejects_non_power_of_two() {
        let mut v = vec![0u8; 12];
        bit_reverse_permute(&mut v);
    }

    #[test]
    fn swap_table_reproduces_permutation() {
        for log_n in [1u32, 2, 5, 11] {
            let n = 1usize << log_n;
            let swaps = bit_reverse_swaps(n);
            let mut via_swaps: Vec<u32> = (0..n as u32).collect();
            apply_swaps(&mut via_swaps, &swaps);
            let mut direct: Vec<u32> = (0..n as u32).collect();
            bit_reverse_permute(&mut direct);
            assert_eq!(via_swaps, direct, "log_n={log_n}");
        }
    }

    #[test]
    fn parallel_swap_application_matches_serial() {
        let n = 1usize << 13;
        let swaps = bit_reverse_swaps(n);
        let reference: Vec<Complex64> = {
            let mut v: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
            apply_swaps(&mut v, &swaps);
            v
        };
        for workers in [1, 2, 5, 8] {
            let mut v: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
            apply_swaps_parallel(&mut v, &swaps, workers);
            assert_eq!(v, reference, "workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        for log_n in [2u32, 6, 10, 13] {
            let n = 1usize << log_n;
            let mut serial: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            let mut parallel = serial.clone();
            bit_reverse_permute(&mut serial);
            for workers in [1, 2, 3, 8] {
                let mut p = parallel.clone();
                bit_reverse_permute_parallel(&mut p, workers);
                assert_eq!(p, serial, "log_n={log_n} workers={workers}");
            }
            parallel.clear();
        }
    }
}
