//! The host lowering: a plan's certified codelet schedule, fired in tiles.
//!
//! The paper sized its 64-point codelets for the Cyclops-64 DRAM banks. On
//! a cache-coherent host the same granularity costs twice: every codelet
//! pays a runtime dispatch, and adjacent codelets of a stage ≥ 1 share the
//! cache lines of their strided elements, so a pool that hands them to
//! different workers makes the workers write the same lines. The host
//! therefore runs each [`ScheduleSpec`] over **tiles**: a tile is `T`
//! consecutive codelet ids of one stage, fired as one runtime task that
//! runs its members in id order.
//!
//! [`TileProgram::lower`] is the quotient of the spec by that blocking:
//!
//! * dataflow slices become [`CsrProgram::quotient`]s — tile edges are the
//!   deduplicated images of every codelet edge;
//! * barrier phases and seed orders become tile lists, first appearance
//!   kept ([`quotient_order`]);
//! * each slice's `expected` codelet count becomes a tile count.
//!
//! A tile fires only after every tile holding a parent of any member has
//! completed, and the members of one tile are independent (one stage), so
//! every codelet still runs after all of its parents: same arithmetic, same
//! bits. Tiles of one stage are unions of disjoint codelets, so they stay
//! disjoint. `fgcheck` races-checks exactly this program.
//!
//! `T` comes only from the plan's shape (see [`tile_log2`]). At full
//! radix a tile is one `P × P` block: at stage 1 the parents of a tile's
//! codelets are exactly one stage-0 tile, so stage 0 and stage 1 run as
//! independent `P²`-point sub-FFTs — the blocked, four-step order —
//! without any schedule saying so.

use crate::plan::FftPlan;
use crate::workload::ScheduleSpec;
use codelet::graph::{quotient_order, CodeletId, CodeletProgram, CsrProgram};
use std::ops::Range;

/// Tile size exponent of the host lowering of `fft`:
/// `T = 2^min(p, n − p − 2)`, at least 1. A tile is at most one `P × P`
/// block, and every stage keeps at least four tiles, so two workers always
/// have tiles to share.
pub fn tile_log2(fft: &FftPlan) -> u32 {
    let (n, p) = (fft.n_log2(), fft.radix_log2());
    p.min(n.saturating_sub(p + 2))
}

/// One barrier-delimited slice of a [`TileProgram`]. Slices run in order,
/// with a barrier between consecutive ones.
#[derive(Debug, Clone)]
pub enum TileSlice {
    /// Barrier phases: every tile of `phases[i]` completes before any tile
    /// of `phases[i + 1]` starts; tiles within a phase are independent.
    Phased(Vec<Vec<CodeletId>>),
    /// Dataflow over the quotient program: exactly `expected` tiles fire,
    /// the seeds and everything they transitively enable.
    Dataflow {
        /// The tile graph.
        program: CsrProgram,
        /// Initially-ready tiles, in pool order.
        seeds: Vec<CodeletId>,
        /// Tiles this slice fires.
        expected: usize,
    },
}

impl TileSlice {
    fn resident_bytes(&self) -> u64 {
        let ids = |v: &[CodeletId]| std::mem::size_of_val(v) as u64;
        match self {
            TileSlice::Phased(phases) => phases.iter().map(|p| ids(p)).sum(),
            TileSlice::Dataflow { program, seeds, .. } => program.resident_bytes() + ids(seeds),
        }
    }
}

/// A codelet schedule lowered onto tiles of `2^tile_log2` consecutive
/// codelet ids: what [`crate::Plan`] stores and fires.
#[derive(Debug, Clone)]
pub struct TileProgram {
    tile_log2: u32,
    tiles: usize,
    slices: Vec<TileSlice>,
}

impl TileProgram {
    /// Lower `spec`, a schedule over `fft`'s codelets, onto the tiles of
    /// [`tile_log2`]`(fft)`.
    pub fn lower(fft: &FftPlan, spec: &ScheduleSpec) -> Self {
        let tile_log2 = tile_log2(fft);
        let dataflow = |program: &dyn CodeletProgram, seeds: &[CodeletId], expected: usize| {
            TileSlice::Dataflow {
                program: CsrProgram::quotient(program, tile_log2),
                seeds: quotient_order(seeds, tile_log2),
                expected: expected >> tile_log2,
            }
        };
        let slices = match spec {
            ScheduleSpec::Phased { phases } => vec![TileSlice::Phased(
                phases
                    .iter()
                    .map(|p| quotient_order(p, tile_log2))
                    .collect(),
            )],
            ScheduleSpec::Fine { graph, seeds } => {
                vec![dataflow(graph, seeds, fft.total_codelets())]
            }
            ScheduleSpec::Guided {
                early,
                early_seeds,
                late,
                late_seeds,
            } => vec![
                dataflow(early, early_seeds, early.expected()),
                dataflow(late, late_seeds, late.expected()),
            ],
        };
        Self {
            tile_log2,
            tiles: fft.total_codelets() >> tile_log2,
            slices,
        }
    }

    /// Codelets per tile, `T`.
    pub fn tile_len(&self) -> usize {
        1 << self.tile_log2
    }

    /// Number of tiles (`total_codelets / T`).
    pub fn num_tiles(&self) -> usize {
        self.tiles
    }

    /// The codelets tile `tile` runs, in run order.
    #[inline]
    pub fn members(&self, tile: CodeletId) -> Range<CodeletId> {
        tile << self.tile_log2..(tile + 1) << self.tile_log2
    }

    /// The barrier-delimited slices, in run order.
    pub fn slices(&self) -> &[TileSlice] {
        &self.slices
    }

    /// Bytes this lowering keeps resident.
    pub fn resident_bytes(&self) -> u64 {
        self.slices.iter().map(TileSlice::resident_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};

    #[test]
    fn tile_size_follows_the_plan_shape() {
        let t = |n, p| tile_log2(&FftPlan::new(n, p));
        assert_eq!(t(18, 6), 6, "one 64 x 64 block");
        assert_eq!(t(12, 6), 4, "four tiles per stage");
        assert_eq!(t(8, 6), 0, "stage of 4 codelets: T = 1");
        assert_eq!(t(7, 6), 0);
        assert_eq!(t(1, 1), 0);
        assert_eq!(t(12, 3), 3);
        for (n, p) in [(10u32, 6u32), (12, 7), (14, 6), (20, 6), (13, 3)] {
            let fft = FftPlan::new(n, p);
            let tile = 1usize << tile_log2(&fft);
            assert!(tile <= fft.radix());
            assert!(fft.codelets_per_stage() / tile >= 4, "2^{n} radix 2^{p}");
        }
    }

    #[test]
    fn slices_follow_the_spec() {
        let fft = FftPlan::new(18, 6); // 3 stages of 4096 codelets, T = 64
        let guided = TileProgram::lower(&fft, &ScheduleSpec::of(fft, Version::FineGuided));
        assert_eq!((guided.tile_len(), guided.num_tiles()), (64, 192));
        let expected: Vec<usize> = guided
            .slices()
            .iter()
            .map(|s| match s {
                TileSlice::Dataflow { expected, .. } => *expected,
                TileSlice::Phased(_) => unreachable!("guided is two dataflow slices"),
            })
            .collect();
        assert_eq!(expected, [64, 128]);
        let coarse = TileProgram::lower(&fft, &ScheduleSpec::of(fft, Version::Coarse));
        match coarse.slices() {
            [TileSlice::Phased(phases)] => {
                assert_eq!(phases.len(), 3);
                assert_eq!(phases[1], (64..128).collect::<Vec<_>>());
            }
            other => panic!("coarse lowers to one phased slice, got {other:?}"),
        }
    }

    #[test]
    fn stage_one_tiles_have_one_parent_tile_at_full_radix() {
        // The four-step block: a stage-1 tile's codelets read exactly what
        // one stage-0 tile wrote.
        let fft = FftPlan::new(18, 6);
        let fine = ScheduleSpec::of(fft, Version::Fine(SeedOrder::Natural));
        let lowered = TileProgram::lower(&fft, &fine);
        let [TileSlice::Dataflow { program, .. }] = lowered.slices() else {
            panic!("fine lowers to one dataflow slice");
        };
        for tile in 64..128 {
            assert_eq!(program.dep_count(tile), 1, "tile {tile}");
        }
        assert_eq!(program.children(5), &[69]);
    }
}
