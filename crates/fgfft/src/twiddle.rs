//! Twiddle-factor tables and their memory layouts.
//!
//! An `N`-point radix-2 FFT needs the `N/2` factors `W[t] = e^{-2πit/N}`.
//! At level `l`, butterfly offset `o` uses `W[o · 2^(log₂N − l − 1)]` — an
//! access stride that is a large power of two in early levels. Stored
//! **linearly**, four 16-byte factors share one 64-byte DRAM stripe, so
//! every early-level access lands on the bank of element 0: this is the
//! paper's bank-0 hotspot. Stored **bit-reversal hashed** (Sec. IV-B),
//! element `t` lives at position `BR(t)`, scattering the strided stream
//! uniformly over the banks at the price of computing `BR` per access.

use crate::bitrev::bit_reverse;
use crate::complex::Complex64;
use std::f64::consts::PI;

/// How twiddle factors are placed in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwiddleLayout {
    /// `W[t]` stored at index `t`.
    Linear,
    /// `W[t]` stored at index `bit_reverse(t, log₂(N/2))` — the paper's
    /// software hash, chosen because C64 has a bit-reverse instruction.
    BitReversedHash,
    /// `W[t]` stored at `(t * MULTIPLIER) mod (N/2)` for an odd multiplier —
    /// an alternative cheap hash used by the hash-function ablation.
    MultiplicativeHash,
}

/// Odd multiplier for [`TwiddleLayout::MultiplicativeHash`] (Knuth's 2^63·φ
/// truncated to keep products in 64 bits for any table size used here).
const MULT_HASH: usize = 0x9E37_79B9_7F4A_7C15 & ((1 << 62) - 1) | 1;

/// A precomputed twiddle-factor table for an `N`-point FFT.
#[derive(Debug, Clone)]
pub struct TwiddleTable {
    n_log2: u32,
    layout: TwiddleLayout,
    values: Vec<Complex64>,
}

impl TwiddleTable {
    /// Precompute the table for a `2^n_log2`-point transform.
    pub fn new(n_log2: u32, layout: TwiddleLayout) -> Self {
        assert!(n_log2 >= 1, "need at least a 2-point transform");
        let half = 1usize << (n_log2 - 1);
        let mut values = vec![Complex64::ZERO; half];
        let step = -2.0 * PI / (1u64 << n_log2) as f64;
        for t in 0..half {
            let slot = Self::map_index(t, n_log2, layout);
            values[slot] = Complex64::expi(step * t as f64);
        }
        Self {
            n_log2,
            layout,
            values,
        }
    }

    /// Where logical index `t` is stored.
    #[inline]
    pub fn map_index(t: usize, n_log2: u32, layout: TwiddleLayout) -> usize {
        let half_bits = n_log2 - 1;
        match layout {
            TwiddleLayout::Linear => t,
            TwiddleLayout::BitReversedHash => bit_reverse(t, half_bits),
            TwiddleLayout::MultiplicativeHash => t.wrapping_mul(MULT_HASH) & ((1 << half_bits) - 1),
        }
    }

    /// Storage slot of logical twiddle `t` in *this* table.
    #[inline]
    pub fn slot(&self, t: usize) -> usize {
        Self::map_index(t, self.n_log2, self.layout)
    }

    /// The factor `W[t] = e^{-2πit/N}`.
    #[inline]
    pub fn get(&self, t: usize) -> Complex64 {
        self.values[self.slot(t)]
    }

    /// Transform size exponent.
    pub fn n_log2(&self) -> u32 {
        self.n_log2
    }

    /// Number of stored factors (`N/2`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the degenerate 2-point table of length 1 — never empty in
    /// practice.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The layout in force.
    pub fn layout(&self) -> TwiddleLayout {
        self.layout
    }

    /// Bytes the table occupies (for address-space planning).
    pub fn bytes(&self) -> u64 {
        (self.values.len() * std::mem::size_of::<Complex64>()) as u64
    }

    /// The stored factors in slot order (layout-permuted). The certificate
    /// layer digests these directly: they are the independent data a
    /// plan's twiddle class runs are copied from.
    pub fn values(&self) -> &[Complex64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_table_values() {
        let t = TwiddleTable::new(3, TwiddleLayout::Linear); // N=8, 4 factors
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(t.get(0).dist(Complex64::ONE) < 1e-15);
        // W_8^2 = e^{-iπ/2} = -i
        assert!(t.get(2).dist(Complex64::new(0.0, -1.0)) < 1e-15);
    }

    #[test]
    fn all_layouts_agree_on_logical_values() {
        for layout in [
            TwiddleLayout::Linear,
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ] {
            let t = TwiddleTable::new(8, layout);
            let lin = TwiddleTable::new(8, TwiddleLayout::Linear);
            for k in 0..t.len() {
                assert!(
                    t.get(k).dist(lin.get(k)) < 1e-15,
                    "layout {layout:?} index {k}"
                );
            }
        }
    }

    #[test]
    fn hashed_layouts_are_permutations() {
        for layout in [
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ] {
            let n_log2 = 10;
            let half = 1usize << (n_log2 - 1);
            let mut seen = vec![false; half];
            for t in 0..half {
                let s = TwiddleTable::map_index(t, n_log2, layout);
                assert!(s < half);
                assert!(!seen[s], "layout {layout:?} collides at {t}");
                seen[s] = true;
            }
        }
    }

    /// Bank of a table slot under the C64 layout: 16-byte elements, 64-byte
    /// stripes, 4 banks.
    fn bank_of_slot(s: usize) -> usize {
        (s * 16 / 64) % 4
    }

    #[test]
    fn bitrev_hash_scatters_strided_stream() {
        // A mid-level access set: indices o * 2^(n-1-l) for o in 0..2^l.
        // Linear layout: every index is a multiple of 16 elements → always
        // bank 0. Bit-reversed layout: the stream becomes contiguous slots,
        // which round-robin across all four banks.
        let n_log2 = 16;
        let l = 8;
        let stride = 1usize << (n_log2 - 1 - l);
        let mut linear = vec![0usize; 4];
        let mut hashed = vec![0usize; 4];
        for o in 0..1usize << l {
            linear[bank_of_slot(TwiddleTable::map_index(
                o * stride,
                n_log2,
                TwiddleLayout::Linear,
            ))] += 1;
            hashed[bank_of_slot(TwiddleTable::map_index(
                o * stride,
                n_log2,
                TwiddleLayout::BitReversedHash,
            ))] += 1;
        }
        assert_eq!(linear, vec![256, 0, 0, 0], "linear: all on bank 0");
        assert_eq!(hashed, vec![64, 64, 64, 64], "hashed: uniform");
    }

    #[test]
    fn full_level_access_set_is_balanced_under_hash() {
        // All twiddles of level l map, under bit reversal, to the contiguous
        // slots 0..2^l (in permuted order), which stripe evenly.
        let n_log2 = 14;
        let l = 5;
        let stride = 1usize << (n_log2 - 1 - l);
        let mut h = vec![0usize; 4];
        for o in 0..1usize << l {
            let s = TwiddleTable::map_index(o * stride, n_log2, TwiddleLayout::BitReversedHash);
            assert!(s < 1 << l, "bit reversal keeps the stream contiguous");
            h[bank_of_slot(s)] += 1;
        }
        assert_eq!(h, vec![8, 8, 8, 8]);
    }

    #[test]
    fn table_bytes() {
        let t = TwiddleTable::new(10, TwiddleLayout::Linear);
        assert_eq!(t.bytes(), 512 * 16);
    }

    #[test]
    #[should_panic(expected = "at least a 2-point")]
    fn zero_size_rejected() {
        TwiddleTable::new(0, TwiddleLayout::Linear);
    }
}
