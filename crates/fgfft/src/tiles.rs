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
//! * dataflow slices become tile graphs whose edges are the deduplicated
//!   images of every codelet edge — the arrays `CsrProgram::quotient`
//!   would build, generated from the stage algebra instead (below);
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
//! # The tile graph in closed form
//!
//! A stage-`j` codelet `idx` (a full stage: only the last stage can be
//! partial, and it has no children) holds element `idx` with its `p` slot
//! bits `x` inserted at bit `p·j`, and the owner of an element in stage
//! `j + 1` keeps some of its bits and drops the rest. So every bit of a
//! child *tile* index is one bit of the parent tile index, of the member
//! offset `m < T`, or of the slot `x` (`StageEdges`). The children of a
//! parent tile are then its fixed bits plus every value of the member and
//! slot bits, members outer — the quotient's first-appearance order — and
//! every child tile has `2^(parent tile bits it does not take)` parent
//! tiles. Generating a slice costs its tile edges, not its codelet edges;
//! `fgcheck`'s pass 2 holds the arrays to the quotient's (FG102).
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
    /// [`tile_log2`]`(fft)`. Dataflow slices are generated from the stage
    /// algebra (`StageEdges`), equal to the quotient of the spec's
    /// programs array for array.
    pub fn lower(fft: &FftPlan, spec: &ScheduleSpec) -> Self {
        let tile_log2 = tile_log2(fft);
        // `emitting` are the stages whose codelets signal their children
        // in the slice's program; its own seeds are the program's
        // initial-ready order, the slice's those of the spec.
        let dataflow = |emitting: Range<usize>,
                        program: &dyn CodeletProgram,
                        seeds: &[CodeletId],
                        expected: usize| {
            let own_seeds = quotient_order(&program.initial_ready(), tile_log2);
            TileSlice::Dataflow {
                program: generate_csr(fft, tile_log2, emitting, own_seeds),
                seeds: quotient_order(seeds, tile_log2),
                expected: expected >> tile_log2,
            }
        };
        let last = fft.stages() - 1;
        let slices = match spec {
            ScheduleSpec::Phased { phases } => vec![TileSlice::Phased(
                phases
                    .iter()
                    .map(|p| quotient_order(p, tile_log2))
                    .collect(),
            )],
            ScheduleSpec::Fine { graph, seeds } => {
                vec![dataflow(0..last, graph, seeds, fft.total_codelets())]
            }
            ScheduleSpec::Guided {
                early,
                early_seeds,
                late,
                late_seeds,
            } => vec![
                dataflow(0..early.last_early(), early, early_seeds, early.expected()),
                dataflow(late.first_late()..last, late, late_seeds, late.expected()),
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

/// Where one bit of a child tile's index comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Bit `i` of the parent tile's index within its stage.
    Tile(u32),
    /// Bit `i` of the member offset `m < T` within the parent tile.
    Member(u32),
    /// Bit `i` of the slot `x < P` of the member codelet.
    Slot(u32),
}

/// The tile edges out of one stage into the next, as bit fields: what
/// [`TileProgram::lower`] generates each dataflow slice from.
///
/// Stage-`j` codelet `idx = t·T + m` holds element `idx` with the slot
/// bits `x` inserted at bit `p·j`. The stage-`(j+1)` owner of an element
/// drops the `q'` bits of its sub-transform slot at `p·(j+1)` and then
/// the `p − q'` low bits that a partial stage packs into one codelet;
/// the child tile drops `τ` more. So each child tile bit is one bit of
/// `t`, `m` or `x` ([`Source`]), no two the same.
#[derive(Debug)]
struct StageEdges {
    /// `(child bit, parent tile bit)` for every child bit the parent tile
    /// fixes.
    fixed: Vec<(u32, u32)>,
    /// The children of a parent tile whose fixed bits are zero, in
    /// first-appearance order: every value of the member-sourced bits
    /// (outer) and the slot-sourced bits (inner), each ascending.
    free: Vec<usize>,
    /// Parent tiles of every child tile: `2^(parent tile bits no child
    /// bit takes)`.
    parents: u32,
}

impl StageEdges {
    /// The edges from stage `stage` (which has children) into `stage + 1`
    /// under tiles of `2^tile_log2` codelets.
    fn of(fft: &FftPlan, tile_log2: u32, stage: usize) -> Self {
        let (n, p) = (fft.n_log2(), fft.radix_log2());
        let pj = p * stage as u32;
        let (next_base, next_levels) = (pj + p, fft.levels(stage + 1));
        let tile_bits = n - p - tile_log2;
        let source = |b: u32| {
            // Child tile bit → owner bit → the owner's group bit → element
            // bit (past the dropped slot field) → codelet or slot bit.
            let group_bit = b + tile_log2 + (p - next_levels);
            let e = if group_bit < next_base {
                group_bit
            } else {
                group_bit + next_levels
            };
            let idx_bit = if e < pj {
                e
            } else if e < pj + p {
                return Source::Slot(e - pj);
            } else {
                e - p
            };
            if idx_bit < tile_log2 {
                Source::Member(idx_bit)
            } else {
                Source::Tile(idx_bit - tile_log2)
            }
        };
        let (mut fixed, mut members, mut slots) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..tile_bits {
            match source(b) {
                Source::Tile(i) => fixed.push((b, i)),
                Source::Member(i) => members.push((i, b)),
                Source::Slot(i) => slots.push((i, b)),
            }
        }
        members.sort_unstable();
        slots.sort_unstable();
        let scatter = |bits: &[(u32, u32)], v: usize| {
            bits.iter()
                .enumerate()
                .map(|(k, &(_, b))| ((v >> k) & 1) << b)
                .sum::<usize>()
        };
        let free = (0..1usize << members.len())
            .flat_map(|a| {
                let high = scatter(&members, a);
                (0..1usize << slots.len()).map(move |c| (high, c))
            })
            .map(|(high, c)| high | scatter(&slots, c))
            .collect();
        let parents = 1 << (tile_bits - fixed.len() as u32);
        Self {
            fixed,
            free,
            parents,
        }
    }

    /// The fixed bits parent tile `t` (within its stage) gives each child.
    fn fixed_bits(&self, t: usize) -> usize {
        self.fixed.iter().map(|&(b, i)| ((t >> i) & 1) << b).sum()
    }
}

/// The tile graph of a dataflow slice whose stages `emitting` signal their
/// children, with `seeds` as its own initial-ready order: the arrays
/// `CsrProgram::quotient` builds from the slice's codelet program, in
/// O(tile edges).
fn generate_csr(
    fft: &FftPlan,
    tile_log2: u32,
    emitting: Range<usize>,
    seeds: Vec<CodeletId>,
) -> CsrProgram {
    let per_stage = fft.codelets_per_stage() >> tile_log2;
    let nodes = fft.stages() * per_stage;
    let mut dep_counts = vec![0u32; nodes];
    let mut child_offsets = Vec::with_capacity(nodes + 1);
    let mut child_data = Vec::new();
    child_offsets.push(0);
    for stage in 0..fft.stages() {
        if !emitting.contains(&stage) {
            child_offsets.extend(std::iter::repeat_n(child_data.len() as u32, per_stage));
            continue;
        }
        let edges = StageEdges::of(fft, tile_log2, stage);
        let children = (stage + 1) * per_stage;
        dep_counts[children..children + per_stage].fill(edges.parents);
        child_data.reserve(per_stage * edges.free.len());
        for t in 0..per_stage {
            let fixed = children + edges.fixed_bits(t);
            child_data.extend(edges.free.iter().map(|&f| (fixed | f) as u32));
            child_offsets.push(child_data.len() as u32);
        }
    }
    CsrProgram::from_parts(dep_counts, child_offsets, child_data, seeds)
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
