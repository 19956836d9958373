//! Bit-reversal: the permutation that precedes every decimation-in-time FFT
//! here, and — reused as a cheap "perfect enough" hash — the paper's
//! Sec. IV-B address randomization for the twiddle-factor array (C64 has a
//! hardware bit-reverse instruction, which is why the paper picked it).

use crate::complex::Complex64;
use codelet::runtime::Runtime;
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

/// Index bits of each tile side in [`bit_reverse_tiled`] from `2^6`
/// points up: the index splits as `a | b | c` with `a` and `c` this many
/// bits each, so a tile (fixed `b`) is `2^TILE_LOG2` rows of
/// `2^TILE_LOG2` consecutive elements — 8 rows of 128 B of complex data.
pub const TILE_LOG2: u32 = 3;

/// Smallest size exponent whose tile loop [`bit_reverse_tiled`] splits
/// across the runtime's workers. Measured on a 2-core AVX2 host: at 2^20
/// two workers take the serial 5.8–6.9 ms down to 2.1–3.6 ms; at 2^18 a
/// split (0.43 ms against 0.45–0.51 ms serial) does not pay for its thread
/// spawn.
pub const PARALLEL_MIN_LOG2: u32 = 20;

/// Middle indices `b` one worker task covers in a split tile loop.
const TILES_PER_TASK: usize = 64;

const TILE: usize = 1 << TILE_LOG2;

/// `REV_TILE[x]` is `x` reversed over [`TILE_LOG2`] bits.
const REV_TILE: [usize; TILE] = {
    let mut rev = [0; TILE];
    let mut x = 0;
    while x < TILE {
        rev[x] = x.reverse_bits() >> (usize::BITS - TILE_LOG2);
        x += 1;
    }
    rev
};

/// The production bit reversal: permute `data` (a power-of-two length) in
/// place, computing every index instead of reading a stored list.
///
/// Index `i = a | b | c`, with `a` and `c` [`TILE_LOG2`] bits each (fewer
/// below `2^6` points: half the index width), reverses to
/// `rev(c) | rev(b) | rev(a)`, so the permutation maps the tile at `b` onto
/// the tile at `rev(b)`, transposed with both tile indices reversed. The
/// loop visits each tile pair once (`b <= rev(b)`), copies both tiles row
/// by row into two 1 KiB stack buffers and writes them back row by row:
/// every access is a contiguous row (128 B at full tile width), and the
/// two tiles' 16 rows stay in L1 while they are exchanged. There are no
/// data-dependent branches, so even a 64-point reversal (one tile) costs
/// about what the stored list did. At [`PARALLEL_MIN_LOG2`] and above the
/// tile pairs are split across `runtime`'s workers.
///
/// Bit-identical to [`bit_reverse_permute`] and to applying
/// [`bit_reverse_swaps`]: it only moves values.
pub fn bit_reverse_tiled(data: &mut [Complex64], runtime: &Runtime) {
    let n = data.len();
    if n <= 2 {
        return;
    }
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    let view = SharedComplexSlice::new(data);
    // SAFETY (the serial calls below): `data` is borrowed exclusively for
    // this call, and `bits >= 2·Q` for the tile width `Q` each one uses.
    match bits {
        2 | 3 => unsafe { exchange_tiles::<1>(&view, bits, 0..1 << (bits - 2)) },
        4 | 5 => unsafe { exchange_tiles::<2>(&view, bits, 0..1 << (bits - 4)) },
        _ => {
            let middle = 1usize << (bits - 2 * TILE_LOG2);
            if bits < PARALLEL_MIN_LOG2 || runtime.workers() == 1 {
                unsafe { exchange_tiles::<TILE_LOG2>(&view, bits, 0..middle) };
                return;
            }
            let tasks: Vec<usize> = (0..middle.div_ceil(TILES_PER_TASK)).collect();
            runtime.run_phased(&[tasks], |task| {
                let lo = task * TILES_PER_TASK;
                // SAFETY: a task exchanges exactly the tile pairs whose
                // smaller index lies in its range, so every tile — a
                // disjoint element set — belongs to one task, and the tasks
                // partition the pairs.
                unsafe {
                    exchange_tiles::<TILE_LOG2>(&view, bits, lo..(lo + TILES_PER_TASK).min(middle))
                };
            });
        }
    }
}

/// Exchange the tile pairs `{b, rev(b)}` with `b <= rev(b)` and `b` in
/// `range`, for a `2^bits`-element view split as `a | b | c` with `a` and
/// `c` `Q` bits each.
///
/// # Safety
/// `Q <= TILE_LOG2`, `bits >= 2·Q`, the view holds `2^bits` elements, and
/// no other thread accesses the elements of those tiles during the call.
unsafe fn exchange_tiles<const Q: u32>(
    view: &SharedComplexSlice,
    bits: u32,
    range: std::ops::Range<usize>,
) {
    let middle_bits = bits - 2 * Q;
    let stride = 1usize << (bits - Q);
    let mut here = [[Complex64::ZERO; TILE]; TILE];
    let mut there = [[Complex64::ZERO; TILE]; TILE];
    for b in range {
        let rb = bit_reverse(b, middle_bits);
        if rb < b {
            continue;
        }
        // SAFETY: tiles `b` and `rb` lie inside the view (`b, rb <
        // 2^middle_bits`) and are owned by the caller.
        unsafe {
            load_tile::<Q>(view, b << Q, stride, &mut here);
            if rb == b {
                store_tile::<Q>(view, b << Q, stride, &here);
            } else {
                load_tile::<Q>(view, rb << Q, stride, &mut there);
                store_tile::<Q>(view, rb << Q, stride, &here);
                store_tile::<Q>(view, b << Q, stride, &there);
            }
        }
    }
}

/// One tile's `2^Q` rows (`2^Q` elements from `base + a·stride` each) read
/// as `buf[rev c][rev a] = tile[a][c]`, which leaves in `buf[a']` exactly
/// row `a'` of the partner tile after the permutation.
///
/// # Safety
/// The rows lie inside the view and no other thread accesses them.
#[inline(always)]
unsafe fn load_tile<const Q: u32>(
    view: &SharedComplexSlice,
    base: usize,
    stride: usize,
    buf: &mut [[Complex64; TILE]; TILE],
) {
    for a in 0..1 << Q {
        let mut row = [Complex64::ZERO; TILE];
        for (c, v) in row.iter_mut().enumerate().take(1 << Q) {
            // SAFETY: forwarded from the caller.
            *v = unsafe { *view.get(base + a * stride + c) };
        }
        for (c, &v) in row.iter().enumerate().take(1 << Q) {
            buf[rev_tile::<Q>(c)][rev_tile::<Q>(a)] = v;
        }
    }
}

/// Write `buf[a]` as row `a` of the tile at `base`.
///
/// # Safety
/// As [`load_tile`].
#[inline(always)]
unsafe fn store_tile<const Q: u32>(
    view: &SharedComplexSlice,
    base: usize,
    stride: usize,
    buf: &[[Complex64; TILE]; TILE],
) {
    for (a, row) in buf.iter().enumerate().take(1 << Q) {
        // SAFETY: forwarded from the caller; `row` is a stack buffer.
        unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), view.get(base + a * stride), 1 << Q) };
    }
}

/// `x < 2^Q` reversed over `Q` bits.
#[inline(always)]
fn rev_tile<const Q: u32>(x: usize) -> usize {
    REV_TILE[x] >> (TILE_LOG2 - Q)
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

/// Apply a precomputed transposition list with `workers` workers — the
/// paper's "`Bit_reversal(D)` in parallel" first step — the calling thread
/// being worker 0 (it takes the first chunk; one thread is
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

/// Minimal shared-mutable slice used by the parallel permutations. The
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
    #[inline(always)]
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

    /// The production permutation against the direct one at every size
    /// from 2^1 to 2^20, on one and two workers: every tile width (2×2
    /// tiles at 2^2–2^3, 4×4 at 2^4–2^5, 8×8 from 2^6, one self-paired
    /// tile at 2^2, 2^4 and 2^6) and the split tile loop at 2^20.
    #[test]
    fn tiled_permutation_matches_direct_at_every_size() {
        for log_n in 1..=20u32 {
            let n = 1usize << log_n;
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            let mut want = input.clone();
            bit_reverse_permute(&mut want);
            for workers in [1, 2] {
                let mut got = input.clone();
                bit_reverse_tiled(&mut got, &Runtime::with_workers(workers));
                assert!(got == want, "log_n={log_n} workers={workers}");
            }
        }
    }

    #[test]
    fn rev_tile_reverses_three_bits() {
        for (x, &r) in REV_TILE.iter().enumerate() {
            assert_eq!(r, bit_reverse(x, TILE_LOG2));
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // The plan's parallel path against the direct permutation, on
        // sizes both below and above the parallel cut-off.
        for log_n in [2u32, 6, 10, 13] {
            let n = 1usize << log_n;
            let mut serial: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            let input = serial.clone();
            bit_reverse_permute(&mut serial);
            let swaps = bit_reverse_swaps(n);
            for workers in [1, 2, 3, 8] {
                let mut p = input.clone();
                apply_swaps_parallel(&mut p, &swaps, workers);
                assert_eq!(p, serial, "log_n={log_n} workers={workers}");
            }
        }
    }
}
