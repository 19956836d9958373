//! The single authority for the FFT's codelet decomposition.
//!
//! Four consumers execute, simulate, cache, or statically analyze the same
//! codelet graph: [`crate::exec`] runs it on the host, [`crate::simwork`]
//! replays it as Cyclops-64 DRAM traffic, [`crate::planner`] materializes it
//! into serving plans, and the `fgcheck` crate verifies it without running
//! it. The paper's core claim — that the measured bank traffic, the analytic
//! model, and the executed schedule describe *one* algorithm — only holds if
//! those views can never drift apart. This module is where each of them gets
//! its facts:
//!
//! * the algorithm versions of Table I ([`Version`], [`SeedOrder`]) and the
//!   schedule each version runs ([`ScheduleSpec`]), including the small-plan
//!   guided fallback, defined once;
//! * the stage address generator ([`StageAddressing`]) every kernel
//!   computes element addresses with, the direct twiddle index
//!   ([`TwiddleIndex`]) the kernels read an unshared stage's twiddles at,
//!   and the stage-level tables ([`butterfly_pairs`],
//!   [`append_twiddle_run`]) from which the planner builds its flat
//!   hot-path arrays;
//! * the byte-address algebra ([`Workload`]): where the data, twiddle, and
//!   spill arrays live in simulated memory, and the exact read/write
//!   [`MemRange`] footprint of every codelet under either twiddle layout —
//!   in the order the simulator issues it.
//!
//! The drift test (`tests/workload_drift.rs`) closes the loop: it executes a
//! host run with a recording kernel and asserts the observed touches equal
//! these static footprints codelet-for-codelet, and that the static per-bank
//! totals equal the simulated ones, for all five versions × both layouts.

use crate::complex::Complex64;
use crate::graph::{FftGraph, GuidedEarlyGraph, GuidedLateGraph};
use crate::plan::FftPlan;
use crate::twiddle::{TwiddleLayout, TwiddleTable};
use c64sim::address::{Interleave, Layout, MemRange, Space};
use codelet::graph::CodeletId;
use std::f64::consts::PI;

/// Bytes per complex element (two f64s) — the unit of every data and
/// twiddle access.
pub const ELEM_BYTES: u64 = 16;

/// Codelet sizes that fit the C64 scratchpad working set (64 points of
/// data + twiddles + temporaries); larger codelets spill to DRAM.
pub const SCRATCHPAD_RADIX_LOG2: u32 = 6;

/// The machine's DRAM interleave — 64-byte units over 4 banks. Every
/// consumer of this module (the simulator's bank model and `fgcheck`'s
/// bank-pressure linter) maps addresses to banks through this one value.
pub fn interleave() -> Interleave {
    Interleave::cyclops64()
}

/// Initial ordering of the ready codelets in the pool. The paper observes
/// ("fine worst" vs "fine best") that this order alone swings performance;
/// these generators cover the orders the harness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedOrder {
    /// Ids ascending — with a LIFO pool, execution starts from the *last*
    /// codelet.
    Natural,
    /// Ids descending.
    Reversed,
    /// All even positions, then all odd positions — a de-clustered order.
    EvenOdd,
    /// Deterministic pseudo-random shuffle of the given seed.
    Random(u64),
}

impl SeedOrder {
    /// Produce the permutation of `0..count`.
    pub fn order(&self, count: usize) -> Vec<usize> {
        match *self {
            SeedOrder::Natural => (0..count).collect(),
            SeedOrder::Reversed => (0..count).rev().collect(),
            SeedOrder::EvenOdd => (0..count).step_by(2).chain((1..count).step_by(2)).collect(),
            SeedOrder::Random(seed) => {
                let mut v: Vec<usize> = (0..count).collect();
                // splitmix64-driven Fisher-Yates: deterministic, seedable,
                // no external dependency.
                let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut next = || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                for i in (1..v.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    v.swap(i, j);
                }
                v
            }
        }
    }
}

/// The algorithm versions of the paper's Table I. One enum serves every
/// layer: the host executors, the simulator runners, the planner cache key,
/// and the static checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Coarse-grain synchronization: a barrier after every stage.
    Coarse,
    /// Coarse-grain with the hashed twiddle-factor layout.
    CoarseHash,
    /// Fine-grain dataflow with the given initial pool order.
    Fine(SeedOrder),
    /// Fine-grain with the hashed twiddle layout.
    FineHash(SeedOrder),
    /// Guided fine-grain: early stages, barrier, last two stages seeded in
    /// child-sharing-group order.
    FineGuided,
}

impl Version {
    /// The twiddle layout this version uses.
    pub fn layout(&self) -> TwiddleLayout {
        match self {
            Version::CoarseHash | Version::FineHash(_) => TwiddleLayout::BitReversedHash,
            _ => TwiddleLayout::Linear,
        }
    }

    /// Short name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Version::Coarse => "coarse",
            Version::CoarseHash => "coarse hash",
            Version::Fine(_) => "fine",
            Version::FineHash(_) => "fine hash",
            Version::FineGuided => "fine guided",
        }
    }

    /// All versions as swept by the paper's figures (fine orders chosen by
    /// the caller).
    pub fn paper_set(order: SeedOrder) -> [Version; 5] {
        [
            Version::Coarse,
            Version::CoarseHash,
            Version::Fine(order),
            Version::FineHash(order),
            Version::FineGuided,
        ]
    }
}

/// Which transform a plan computes. The workload module lowers every kind
/// onto the same complex codelet machinery:
///
/// * [`TransformKind::C2C`] — the paper's 1D complex transform, unchanged.
/// * [`TransformKind::R2C`] / [`TransformKind::C2R`] — a real transform of
///   `N` samples packed into an `N/2`-point complex FFT plus a pairwise
///   untangle (resp. tangle) stage with its own twiddle table.
/// * [`TransformKind::C2C2D`] — the row–column decomposition: a wave of
///   row FFTs, a blocked transpose into a scratch plane, a wave of column
///   FFTs, and the transpose back. The transposes are first-class codelets
///   with byte footprints, so the bank linter sees their traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransformKind {
    /// 1D complex-to-complex (the default; `n_log2` is the transform size).
    #[default]
    C2C,
    /// Real-to-complex: `n_log2` is the *real* length `N`; the plan runs on
    /// the packed buffer of `N/2` complex slots.
    R2C,
    /// Complex-to-real inverse of [`TransformKind::R2C`], same packing.
    C2R,
    /// 2D complex transform over a `rows × cols` row-major plane;
    /// `n_log2 = rows_log2 + cols_log2`.
    C2C2D {
        /// Row-count exponent (`rows = 2^rows_log2`).
        rows_log2: u32,
        /// Column-count exponent (`cols = 2^cols_log2`).
        cols_log2: u32,
    },
}

impl TransformKind {
    /// Check the kind against a transform-size exponent. Real kinds need
    /// `N ≥ 4` (a non-trivial packed half); 2D needs both axes ≥ 2 points
    /// and a consistent total size.
    pub fn validate(&self, n_log2: u32) -> Result<(), String> {
        match *self {
            TransformKind::C2C => Ok(()),
            TransformKind::R2C | TransformKind::C2R => {
                if n_log2 < 2 {
                    Err(format!("real transforms need N >= 4, got 2^{n_log2}"))
                } else {
                    Ok(())
                }
            }
            TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            } => {
                if rows_log2 < 1 || cols_log2 < 1 {
                    Err(format!(
                        "2D transforms need both axes >= 2, got {rows_log2}x{cols_log2}"
                    ))
                } else if rows_log2 + cols_log2 != n_log2 {
                    Err(format!(
                        "2D shape {rows_log2}+{cols_log2} does not match n_log2={n_log2}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Size exponent of the *primary* inner complex FFT the kind lowers to:
    /// the transform itself (C2C), the packed half (real kinds), or the row
    /// transform (2D).
    pub fn inner_n_log2(&self, n_log2: u32) -> u32 {
        match *self {
            TransformKind::C2C => n_log2,
            TransformKind::R2C | TransformKind::C2R => n_log2 - 1,
            TransformKind::C2C2D { cols_log2, .. } => cols_log2,
        }
    }

    /// Complex slots the execution buffer must hold: `N` for C2C and 2D,
    /// `N/2` for the packed real kinds.
    pub fn buffer_len(&self, n_log2: u32) -> usize {
        match *self {
            TransformKind::R2C | TransformKind::C2R => 1usize << (n_log2 - 1),
            _ => 1usize << n_log2,
        }
    }

    /// Whether this is the plain 1D complex transform.
    pub fn is_c2c(&self) -> bool {
        matches!(self, TransformKind::C2C)
    }

    /// Stable text form used by wisdom files and CLI flags:
    /// `c2c`, `r2c`, `c2r`, or `c2c2d:<rows_log2>x<cols_log2>`.
    pub fn as_string(&self) -> String {
        match *self {
            TransformKind::C2C => "c2c".to_string(),
            TransformKind::R2C => "r2c".to_string(),
            TransformKind::C2R => "c2r".to_string(),
            TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            } => format!("c2c2d:{rows_log2}x{cols_log2}"),
        }
    }

    /// Parse the [`TransformKind::as_string`] form.
    pub fn parse(s: &str) -> Option<TransformKind> {
        match s {
            "c2c" => Some(TransformKind::C2C),
            "r2c" => Some(TransformKind::R2C),
            "c2r" => Some(TransformKind::C2R),
            _ => {
                let dims = s.strip_prefix("c2c2d:")?;
                let (r, c) = dims.split_once('x')?;
                Some(TransformKind::C2C2D {
                    rows_log2: r.parse().ok()?,
                    cols_log2: c.parse().ok()?,
                })
            }
        }
    }
}

/// Default transpose tile edge exponent for 2D plans (32×32 element tiles —
/// each tile row is half a DRAM stripe, so a tile's reads and writes both
/// stripe across banks). Clamped to the plane's smaller axis.
pub const DEFAULT_TRANSPOSE_BLOCK_LOG2: u32 = 5;

/// The untangle twiddle table of an `N`-point real transform: the factors
/// `W_N^k = e^{-2πik/N}` for `k = 0..=N/4`, one per conjugate-symmetric bin
/// pair. The forward untangle consumes them directly; the inverse tangle
/// consumes their conjugates. Plans precompute this table once
/// ([`crate::Plan`]) and the drift test holds executions to these exact
/// bits.
pub fn untangle_table(n_log2: u32) -> Vec<Complex64> {
    assert!(n_log2 >= 2, "real transforms need N >= 4");
    let n = 1u64 << n_log2;
    let quarter = 1usize << (n_log2 - 2);
    let step = -2.0 * PI / n as f64;
    (0..=quarter)
        .map(|k| Complex64::expi(step * k as f64))
        .collect()
}

/// Tuned overrides for the schedule a [`Version`] runs — what the `fgtune`
/// autotuner searches over and the wisdom store persists. The overrides
/// never change the arithmetic (the codelet DAG fixes the values, see the
/// cross-version bit-exactness tests); they only reorder the initial
/// codelet pool and move the guided barrier, the two knobs behind the
/// paper's "fine worst" vs "fine best" spread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleTuning {
    /// Initial pool-order permutation of `0..codelets_per_stage`: the seed
    /// order of the fine and guided-early pools, and the per-phase issue
    /// order of the coarse versions. `None` keeps the version's own order.
    pub pool_order: Option<Vec<usize>>,
    /// Last stage of the guided early phase (guided version only; `None`
    /// keeps the paper's `stages − 3`). The late phase covers
    /// `last_early+1..stages`.
    pub last_early: Option<usize>,
    /// Transpose tile edge exponent for 2D plans (`None` keeps
    /// [`DEFAULT_TRANSPOSE_BLOCK_LOG2`]). Clamped to the plane's smaller
    /// axis at build time; ignored by 1D kinds.
    pub transpose_block_log2: Option<u32>,
}

impl ScheduleTuning {
    /// No overrides — identical to the version's own schedule.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Check the overrides against `plan`: the pool order must be a
    /// permutation of `0..codelets_per_stage`, and the guided split must
    /// leave both phases non-empty. Returns a description of the first
    /// violation.
    pub fn validate(&self, plan: &FftPlan) -> Result<(), String> {
        if let Some(order) = &self.pool_order {
            let cps = plan.codelets_per_stage();
            if order.len() != cps {
                return Err(format!(
                    "pool order has {} entries, expected {cps}",
                    order.len()
                ));
            }
            let mut seen = vec![false; cps];
            for &idx in order {
                if idx >= cps || seen[idx] {
                    return Err(format!(
                        "pool order is not a permutation of 0..{cps}: entry {idx}"
                    ));
                }
                seen[idx] = true;
            }
        }
        if let Some(last_early) = self.last_early {
            if plan.stages() >= 3 && last_early + 1 >= plan.stages() {
                return Err(format!(
                    "guided split last_early={last_early} leaves no late stage (stages={})",
                    plan.stages()
                ));
            }
        }
        Ok(())
    }
}

/// The schedule a [`Version`] runs, spelled out once for every consumer:
/// the simulator's schedulers, the planner's materialized CSR programs, and
/// `fgcheck`'s happens-before order are all built from this value — seeds
/// included — so they cannot disagree about phases, seeds, or the
/// small-plan fallback.
#[derive(Debug, Clone)]
pub enum ScheduleSpec {
    /// Barrier after every phase; phase `s` is stage `s` (Alg. 1).
    Phased {
        /// Codelet ids of each phase, in issue order.
        phases: Vec<Vec<CodeletId>>,
    },
    /// Single dataflow pool over the full graph, LIFO, seeded in the given
    /// order (Alg. 2).
    Fine {
        /// The full dependence graph.
        graph: FftGraph,
        /// Stage-0 codelet ids in initial pool order.
        seeds: Vec<CodeletId>,
    },
    /// Two dataflow phases with one barrier between them (Alg. 3).
    Guided {
        /// Stages `0..=last_early`, seeded at stage 0.
        early: GuidedEarlyGraph,
        /// Stage-0 codelet ids in initial early-pool order.
        early_seeds: Vec<CodeletId>,
        /// The tail stages, seeded in bank-rotated grouped order.
        late: GuidedLateGraph,
        /// Stage-`first_late` codelet ids in initial late-pool order.
        late_seeds: Vec<CodeletId>,
    },
}

impl ScheduleSpec {
    /// The schedule `version` executes over `plan` — including the guided
    /// fallback to plain fine-grain when there are fewer than 3 stages.
    pub fn of(plan: FftPlan, version: Version) -> Self {
        Self::of_tuned(plan, version, None)
    }

    /// As [`ScheduleSpec::of`], with the autotuner's overrides applied on
    /// top of the version's own schedule. `tuning` must satisfy
    /// [`ScheduleTuning::validate`]; `None` (or an identity tuning) yields
    /// exactly [`ScheduleSpec::of`].
    pub fn of_tuned(plan: FftPlan, version: Version, tuning: Option<&ScheduleTuning>) -> Self {
        let cps = plan.codelets_per_stage();
        if let Some(t) = tuning {
            if let Err(why) = t.validate(&plan) {
                panic!("invalid schedule tuning: {why}");
            }
        }
        let pool_order = tuning.and_then(|t| t.pool_order.as_ref());
        match version {
            Version::Coarse | Version::CoarseHash => {
                // The tuned pool order becomes the issue order within every
                // barrier phase (phases themselves are fixed by the stages).
                let order: Vec<usize> = match pool_order {
                    Some(order) => order.clone(),
                    None => (0..cps).collect(),
                };
                ScheduleSpec::Phased {
                    phases: (0..plan.stages())
                        .map(|s| order.iter().map(|&idx| s * cps + idx).collect())
                        .collect(),
                }
            }
            Version::Fine(order) | Version::FineHash(order) => ScheduleSpec::Fine {
                graph: FftGraph::new(plan),
                seeds: match pool_order {
                    Some(order) => order.clone(),
                    None => order.order(cps),
                },
            },
            Version::FineGuided => {
                if plan.stages() < 3 {
                    // Too few stages to split: degrade to plain fine-grain.
                    let graph = FftGraph::new(plan);
                    let seeds = match pool_order {
                        Some(order) => order.clone(),
                        None => graph.stage0_ids(),
                    };
                    ScheduleSpec::Fine { graph, seeds }
                } else {
                    let last_early = tuning
                        .and_then(|t| t.last_early)
                        .unwrap_or(plan.stages() - 3);
                    let early = GuidedEarlyGraph::new(plan, last_early);
                    let late = GuidedLateGraph::new(plan, last_early + 1);
                    let early_seeds = match pool_order {
                        Some(order) => order.clone(),
                        None => early.seeds(),
                    };
                    let late_seeds = late.seeds();
                    ScheduleSpec::Guided {
                        early,
                        early_seeds,
                        late,
                        late_seeds,
                    }
                }
            }
        }
    }
}

/// What array a footprint access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The data array (gather loads and scatter stores).
    Data,
    /// The twiddle table (loads only; the layout decides the address).
    Twiddle,
    /// The per-codelet DRAM spill region (codelets larger than the
    /// scratchpad only) — private per task, never shared.
    Spill,
    /// The transpose scratch plane of a 2D transform (transpose-tile writes
    /// and column-FFT traffic) — a second full plane in DRAM.
    Scratch,
}

/// One access of a codelet's footprint: a byte range plus the array it
/// belongs to, so lowering passes can place each region in its space.
#[derive(Debug, Clone, Copy)]
pub struct FootprintOp {
    /// The byte range, classified read or write.
    pub range: MemRange,
    /// The array the range belongs to.
    pub region: Region,
}

/// Where the data and twiddle arrays live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residence {
    /// Off-chip DRAM — the paper's main configuration (large problems).
    Dram,
    /// On-chip SRAM — the predecessor study's configuration (Sec. III-B):
    /// no bank interleave pathology, but codelets larger than the register
    /// file spill intermediates to the scratchpad.
    Sram,
}

/// The byte-address view of the decomposition: array placement and exact
/// per-codelet memory footprints.
///
/// Mirrors the paper's runtime layout — data and twiddle arrays contiguous
/// and 64-byte aligned in the chosen residence, a DRAM spill region when the
/// codelet exceeds the scratchpad. [`Workload::for_each_op`] yields every
/// access of a codelet *in the order the machine issues it*: `P` gather
/// loads, the twiddle loads, spill store/load rounds for oversized codelets,
/// then `P` scatter stores.
#[derive(Debug, Clone)]
pub struct Workload {
    plan: FftPlan,
    layout: TwiddleLayout,
    residence: Residence,
    data_base: u64,
    twiddle_base: u64,
    spill_base: Option<u64>,
}

impl Workload {
    /// DRAM residence (the paper's main configuration).
    pub fn new(plan: FftPlan, layout: TwiddleLayout) -> Self {
        Self::with_residence(plan, layout, Residence::Dram)
    }

    /// Fully explicit constructor.
    pub fn with_residence(plan: FftPlan, layout: TwiddleLayout, residence: Residence) -> Self {
        let space = match residence {
            Residence::Dram => Space::Dram,
            Residence::Sram => Space::Sram,
        };
        let mut mem = Layout::new();
        let data_base = mem.alloc(space, plan.n() as u64 * ELEM_BYTES, 64);
        let twiddle_base = mem.alloc(space, (plan.n() as u64 / 2) * ELEM_BYTES, 64);
        let spill_base = (plan.radix_log2() > SCRATCHPAD_RADIX_LOG2).then(|| {
            mem.alloc(
                Space::Dram,
                plan.total_codelets() as u64 * plan.radix() as u64 * ELEM_BYTES,
                64,
            )
        });
        Self {
            plan,
            layout,
            residence,
            data_base,
            twiddle_base,
            spill_base,
        }
    }

    /// Place this workload inside a caller-managed address map: the data
    /// region lives at `data_base` (allocated by the caller), while the
    /// twiddle (and, for oversized codelets, spill) regions are allocated
    /// from `mem`. Composite transforms ([`KindWorkload`]) embed several
    /// inner FFTs in one address space this way.
    pub fn embedded(
        plan: FftPlan,
        layout: TwiddleLayout,
        mem: &mut Layout,
        data_base: u64,
    ) -> Self {
        let twiddle_base = mem.alloc(Space::Dram, (plan.n() as u64 / 2) * ELEM_BYTES, 64);
        let spill_base = (plan.radix_log2() > SCRATCHPAD_RADIX_LOG2).then(|| {
            mem.alloc(
                Space::Dram,
                plan.total_codelets() as u64 * plan.radix() as u64 * ELEM_BYTES,
                64,
            )
        });
        Self {
            plan,
            layout,
            residence: Residence::Dram,
            data_base,
            twiddle_base,
            spill_base,
        }
    }

    /// The plan driving this workload.
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// The twiddle layout deciding twiddle addresses.
    pub fn layout(&self) -> TwiddleLayout {
        self.layout
    }

    /// Where the data and twiddle arrays live.
    pub fn residence(&self) -> Residence {
        self.residence
    }

    /// Byte address of data element `e`.
    pub fn data_addr(&self, e: usize) -> u64 {
        self.data_base + e as u64 * ELEM_BYTES
    }

    /// Byte address of logical twiddle index `t` under the layout.
    pub fn twiddle_addr(&self, t: usize) -> u64 {
        let slot = TwiddleTable::map_index(t, self.plan.n_log2(), self.layout);
        self.twiddle_base + slot as u64 * ELEM_BYTES
    }

    /// Visit every access of codelet `task`, in machine issue order.
    pub fn for_each_op(&self, task: CodeletId, mut f: impl FnMut(FootprintOp)) {
        let stage = self.plan.stage_of(task);
        let idx = self.plan.idx_of(task);
        let q = self.plan.levels(stage);
        let radix = self.plan.radix() as u64;

        // Gather: P element loads.
        self.plan.for_each_element(stage, idx, |_, e| {
            f(FootprintOp {
                range: MemRange::read(self.data_addr(e), ELEM_BYTES),
                region: Region::Data,
            });
        });
        // Twiddle loads interleaved with compute; addresses decide banks.
        for_each_twiddle_index(&self.plan, stage, idx, |t| {
            f(FootprintOp {
                range: MemRange::read(self.twiddle_addr(t), ELEM_BYTES),
                region: Region::Twiddle,
            });
        });
        // Codelets larger than the scratchpad working set spill to DRAM
        // (off-chip residence only; on-chip problems fit the scratchpad).
        if let Some(spill_base) = self.spill_base {
            let extra_levels = q.saturating_sub(SCRATCHPAD_RADIX_LOG2) as u64;
            let base = spill_base + task as u64 * radix * ELEM_BYTES;
            for _ in 0..extra_levels {
                for k in 0..radix {
                    f(FootprintOp {
                        range: MemRange::write(base + k * ELEM_BYTES, ELEM_BYTES),
                        region: Region::Spill,
                    });
                }
                for k in 0..radix {
                    f(FootprintOp {
                        range: MemRange::read(base + k * ELEM_BYTES, ELEM_BYTES),
                        region: Region::Spill,
                    });
                }
            }
        }
        // Scatter: P element stores.
        self.plan.for_each_element(stage, idx, |_, e| {
            f(FootprintOp {
                range: MemRange::write(self.data_addr(e), ELEM_BYTES),
                region: Region::Data,
            });
        });
    }

    /// The memory footprint of codelet `task`: every byte range it touches,
    /// classified read or write — what the `fgcheck` race detector and bank
    /// linter consume. Spill traffic targets a per-task private region and
    /// so can never conflict across tasks.
    pub fn footprint(&self, task: CodeletId) -> Vec<MemRange> {
        let mut out = Vec::new();
        self.for_each_op(task, |op| out.push(op.range));
        out
    }
}

/// The byte-address view of a *composite* transform: how a
/// [`TransformKind`] lowers onto the complex codelet machinery, with every
/// extra stage — untangle/tangle bin pairs, transpose tiles, the final
/// conjugate-scale of `c2r` — expressed as tasks with real byte footprints.
///
/// One address map covers the whole composite: the packed data buffer, the
/// inner FFT's twiddle table(s), the untangle table (real kinds), and the
/// transpose scratch plane (2D). Composite task ids are contiguous in
/// execution order:
///
/// * `C2C` — the inner codelets, unchanged.
/// * `R2C` — `[inner FFT tasks][untangle tasks]`.
/// * `C2R` — `[tangle tasks][inner FFT tasks][finalize tasks]`.
/// * `C2C2D` — `[row-FFT tasks, row-major][transpose tiles][column-FFT
///   tasks, column-major][transpose-back tiles]`.
///
/// [`KindWorkload::phases`] gives the barrier phases execution honors, and
/// [`KindWorkload::footprint`] the per-task byte traffic — what the
/// `fgcheck` race detector, the bank linter, the simulator, and the
/// per-kind drift tests all consume. Composite kinds clamp the codelet
/// radix to the scratchpad ([`SCRATCHPAD_RADIX_LOG2`]) so inner FFTs never
/// spill.
#[derive(Debug, Clone)]
pub struct KindWorkload {
    kind: TransformKind,
    n_log2: u32,
    inner: Workload,
    col: Option<Workload>,
    data_base: u64,
    untangle_base: u64,
    scratch_base: u64,
    block_log2: u32,
}

impl KindWorkload {
    /// The composite workload of `kind` at size `2^n_log2` with the default
    /// transpose tiling. Panics when the kind does not fit the size (see
    /// [`TransformKind::validate`]).
    pub fn new(kind: TransformKind, n_log2: u32, radix_log2: u32, layout: TwiddleLayout) -> Self {
        Self::with_block(
            kind,
            n_log2,
            radix_log2,
            layout,
            DEFAULT_TRANSPOSE_BLOCK_LOG2,
        )
    }

    /// As [`KindWorkload::new`] with an explicit transpose tile edge
    /// exponent (2D only; clamped to the plane's smaller axis).
    pub fn with_block(
        kind: TransformKind,
        n_log2: u32,
        radix_log2: u32,
        layout: TwiddleLayout,
        block_log2: u32,
    ) -> Self {
        if let Err(why) = kind.validate(n_log2) {
            panic!("invalid transform kind: {why}");
        }
        // Composite kinds keep codelets scratchpad-resident: spill regions
        // are per-inner-task, which would alias across the 2D row wave.
        let radix_log2 = if kind.is_c2c() {
            radix_log2
        } else {
            radix_log2.min(SCRATCHPAD_RADIX_LOG2)
        };
        let mut mem = Layout::new();
        let buffer_len = kind.buffer_len(n_log2) as u64;
        let data_base = mem.alloc(Space::Dram, buffer_len * ELEM_BYTES, 64);
        let inner_log2 = kind.inner_n_log2(n_log2);
        let inner = Workload::embedded(
            FftPlan::new(inner_log2, radix_log2.min(inner_log2)),
            layout,
            &mut mem,
            data_base,
        );
        let (col, scratch_base) = match kind {
            TransformKind::C2C2D { rows_log2, .. } => {
                let scratch_base = mem.alloc(Space::Dram, (1u64 << n_log2) * ELEM_BYTES, 64);
                let col = Workload::embedded(
                    FftPlan::new(rows_log2, radix_log2.min(rows_log2)),
                    layout,
                    &mut mem,
                    scratch_base,
                );
                (Some(col), scratch_base)
            }
            _ => (None, 0),
        };
        let untangle_base = match kind {
            TransformKind::R2C | TransformKind::C2R => {
                mem.alloc(Space::Dram, ((1u64 << (n_log2 - 2)) + 1) * ELEM_BYTES, 64)
            }
            _ => 0,
        };
        let block_log2 = match kind {
            TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            } => block_log2.min(rows_log2).min(cols_log2),
            _ => 0,
        };
        Self {
            kind,
            n_log2,
            inner,
            col,
            data_base,
            untangle_base,
            scratch_base,
            block_log2,
        }
    }

    /// The transform kind this workload lowers.
    pub fn kind(&self) -> TransformKind {
        self.kind
    }

    /// Transform size exponent (real length for real kinds, `rows · cols`
    /// for 2D).
    pub fn n_log2(&self) -> u32 {
        self.n_log2
    }

    /// Complex slots of the execution buffer.
    pub fn buffer_len(&self) -> usize {
        self.kind.buffer_len(self.n_log2)
    }

    /// The primary inner complex FFT workload (the row transform for 2D).
    pub fn inner(&self) -> &Workload {
        &self.inner
    }

    /// The column-FFT workload over the scratch plane (2D only).
    pub fn col_inner(&self) -> Option<&Workload> {
        self.col.as_ref()
    }

    /// Effective transpose tile edge exponent (2D only; 0 otherwise).
    pub fn block_log2(&self) -> u32 {
        self.block_log2
    }

    fn rows(&self) -> usize {
        match self.kind {
            TransformKind::C2C2D { rows_log2, .. } => 1usize << rows_log2,
            _ => 1,
        }
    }

    fn cols(&self) -> usize {
        match self.kind {
            TransformKind::C2C2D { cols_log2, .. } => 1usize << cols_log2,
            _ => 1,
        }
    }

    /// Packed half length of a real transform (`N/2`).
    fn half(&self) -> usize {
        1usize << (self.n_log2 - 1)
    }

    /// Untangle/tangle tasks: conjugate-symmetric bin pairs `k = 0..=N/4`,
    /// chunked `radix` pairs per task.
    fn n_pair_tasks(&self) -> usize {
        let quarter = 1usize << (self.n_log2 - 2);
        (quarter + 1).div_ceil(self.inner.plan().radix())
    }

    /// `c2r` finalize tasks: `radix`-element conjugate-scale chunks.
    fn n_final_tasks(&self) -> usize {
        self.half().div_ceil(self.inner.plan().radix())
    }

    /// Transpose tiles per direction.
    fn n_tiles(&self) -> usize {
        let b = 1usize << self.block_log2;
        (self.rows() / b) * (self.cols() / b)
    }

    /// Total composite tasks.
    pub fn n_tasks(&self) -> usize {
        let t_in = self.inner.plan().total_codelets();
        match self.kind {
            TransformKind::C2C => t_in,
            TransformKind::R2C => t_in + self.n_pair_tasks(),
            TransformKind::C2R => self.n_pair_tasks() + t_in + self.n_final_tasks(),
            TransformKind::C2C2D { .. } => {
                let t_col = self.col.as_ref().unwrap().plan().total_codelets();
                self.rows() * t_in + self.cols() * t_col + 2 * self.n_tiles()
            }
        }
    }

    /// The barrier phases execution honors, over composite task ids: inner
    /// FFT stages stay stages (all rows of a 2D wave share each stage
    /// phase), and every extra stage — tangle, untangle, each transpose,
    /// finalize — is one phase of mutually disjoint tasks.
    pub fn phases(&self) -> Vec<Vec<CodeletId>> {
        let t_in = self.inner.plan().total_codelets();
        let inner_stages = |offset: usize, copies: usize, per_copy: usize| {
            let plan = self.inner.plan();
            let cps = plan.codelets_per_stage();
            (0..plan.stages())
                .map(|s| {
                    let mut ids = Vec::with_capacity(cps * copies);
                    for r in 0..copies {
                        ids.extend((0..cps).map(|idx| offset + r * per_copy + s * cps + idx));
                    }
                    ids
                })
                .collect::<Vec<_>>()
        };
        match self.kind {
            TransformKind::C2C => inner_stages(0, 1, t_in),
            TransformKind::R2C => {
                let mut phases = inner_stages(0, 1, t_in);
                phases.push((t_in..t_in + self.n_pair_tasks()).collect());
                phases
            }
            TransformKind::C2R => {
                let np = self.n_pair_tasks();
                let mut phases = vec![(0..np).collect::<Vec<_>>()];
                phases.extend(inner_stages(np, 1, t_in));
                phases.push((np + t_in..np + t_in + self.n_final_tasks()).collect());
                phases
            }
            TransformKind::C2C2D { .. } => {
                let col_plan = *self.col.as_ref().unwrap().plan();
                let t_col = col_plan.total_codelets();
                let (rows, cols, tiles) = (self.rows(), self.cols(), self.n_tiles());
                let mut phases = inner_stages(0, rows, t_in);
                let base = rows * t_in;
                phases.push((base..base + tiles).collect());
                let col_base = base + tiles;
                let col_cps = col_plan.codelets_per_stage();
                for s in 0..col_plan.stages() {
                    let mut ids = Vec::with_capacity(col_cps * cols);
                    for c in 0..cols {
                        ids.extend(
                            (0..col_cps).map(|idx| col_base + c * t_col + s * col_cps + idx),
                        );
                    }
                    phases.push(ids);
                }
                let back = col_base + cols * t_col;
                phases.push((back..back + tiles).collect());
                phases
            }
        }
    }

    /// Byte address of buffer element `e` — elements `0..buffer_len` are
    /// the data buffer, `buffer_len..2·buffer_len` the 2D scratch plane
    /// (the element-index convention recorded executions report).
    pub fn element_addr(&self, e: usize) -> u64 {
        let len = self.buffer_len();
        if e < len {
            self.data_base + e as u64 * ELEM_BYTES
        } else {
            assert!(
                self.col.is_some() && e < 2 * len,
                "element {e} outside data and scratch planes"
            );
            self.scratch_base + (e - len) as u64 * ELEM_BYTES
        }
    }

    /// Byte address of untangle factor `k` (real kinds).
    pub fn untangle_addr(&self, k: usize) -> u64 {
        self.untangle_base + k as u64 * ELEM_BYTES
    }

    /// The `k` range (bin pairs) of untangle/tangle task `u`.
    fn pair_range(&self, u: usize) -> (usize, usize) {
        let chunk = self.inner.plan().radix();
        let quarter = 1usize << (self.n_log2 - 2);
        (u * chunk, ((u + 1) * chunk).min(quarter + 1))
    }

    fn emit_pair_stage(&self, u: usize, f: &mut impl FnMut(FootprintOp)) {
        let half = self.half();
        let (lo, hi) = self.pair_range(u);
        let each = |k: usize, write: bool, f: &mut dyn FnMut(FootprintOp)| {
            let emit = |slot: usize, f: &mut dyn FnMut(FootprintOp)| {
                let addr = self.data_base + slot as u64 * ELEM_BYTES;
                f(FootprintOp {
                    range: if write {
                        MemRange::write(addr, ELEM_BYTES)
                    } else {
                        MemRange::read(addr, ELEM_BYTES)
                    },
                    region: Region::Data,
                });
            };
            emit(k, f);
            // Bin 0 packs DC and Nyquist into slot 0; bin N/4 is its own
            // mirror — both touch a single slot.
            let mirror = (half - k) % half;
            if mirror != k {
                emit(mirror, f);
            }
        };
        for k in lo..hi {
            each(k, false, f);
        }
        // One untangle factor per pair; bin 0 combines real parts without
        // a factor.
        for k in lo.max(1)..hi {
            f(FootprintOp {
                range: MemRange::read(self.untangle_addr(k), ELEM_BYTES),
                region: Region::Twiddle,
            });
        }
        for k in lo..hi {
            each(k, true, f);
        }
    }

    fn emit_finalize(&self, u: usize, f: &mut impl FnMut(FootprintOp)) {
        let radix = self.inner.plan().radix();
        let (lo, hi) = (u * radix, ((u + 1) * radix).min(self.half()));
        for e in lo..hi {
            f(FootprintOp {
                range: MemRange::read(self.data_base + e as u64 * ELEM_BYTES, ELEM_BYTES),
                region: Region::Data,
            });
        }
        for e in lo..hi {
            f(FootprintOp {
                range: MemRange::write(self.data_base + e as u64 * ELEM_BYTES, ELEM_BYTES),
                region: Region::Data,
            });
        }
    }

    /// One transpose tile: `b` contiguous row-segment reads from the
    /// source plane, `b` contiguous row-segment writes to the destination.
    fn emit_transpose(&self, tile: usize, forward: bool, f: &mut impl FnMut(FootprintOp)) {
        let (rows, cols) = (self.rows(), self.cols());
        let b = 1usize << self.block_log2;
        let (src_cols, dst_cols, src_base, src_region, dst_base, dst_region) = if forward {
            (
                cols,
                rows,
                self.data_base,
                Region::Data,
                self.scratch_base,
                Region::Scratch,
            )
        } else {
            (
                rows,
                cols,
                self.scratch_base,
                Region::Scratch,
                self.data_base,
                Region::Data,
            )
        };
        let tiles_across = src_cols / b;
        let bi = tile / tiles_across;
        let bj = tile % tiles_across;
        let seg = b as u64 * ELEM_BYTES;
        for rr in 0..b {
            let e = (bi * b + rr) * src_cols + bj * b;
            f(FootprintOp {
                range: MemRange::read(src_base + e as u64 * ELEM_BYTES, seg),
                region: src_region,
            });
        }
        for cc in 0..b {
            let e = (bj * b + cc) * dst_cols + bi * b;
            f(FootprintOp {
                range: MemRange::write(dst_base + e as u64 * ELEM_BYTES, seg),
                region: dst_region,
            });
        }
    }

    /// Inner FFT ops with the data plane offset to copy `copy` of a wave
    /// (and, for the column wave, retargeted to the scratch plane).
    fn emit_inner(
        &self,
        workload: &Workload,
        copy: usize,
        task: CodeletId,
        scratch: bool,
        f: &mut impl FnMut(FootprintOp),
    ) {
        let offset = (copy * workload.plan().n()) as u64 * ELEM_BYTES;
        workload.for_each_op(task, |op| {
            if op.region == Region::Data {
                f(FootprintOp {
                    range: MemRange {
                        lo: op.range.lo + offset,
                        hi: op.range.hi + offset,
                        write: op.range.write,
                    },
                    region: if scratch {
                        Region::Scratch
                    } else {
                        Region::Data
                    },
                });
            } else {
                f(op);
            }
        });
    }

    /// Visit every access of composite task `task`, in machine issue order.
    pub fn for_each_op(&self, task: CodeletId, mut f: impl FnMut(FootprintOp)) {
        let t_in = self.inner.plan().total_codelets();
        match self.kind {
            TransformKind::C2C => self.inner.for_each_op(task, f),
            TransformKind::R2C => {
                if task < t_in {
                    self.inner.for_each_op(task, f);
                } else {
                    assert!(task < self.n_tasks(), "task {task} out of range");
                    self.emit_pair_stage(task - t_in, &mut f);
                }
            }
            TransformKind::C2R => {
                let np = self.n_pair_tasks();
                if task < np {
                    self.emit_pair_stage(task, &mut f);
                } else if task < np + t_in {
                    self.inner.for_each_op(task - np, f);
                } else {
                    assert!(task < self.n_tasks(), "task {task} out of range");
                    self.emit_finalize(task - np - t_in, &mut f);
                }
            }
            TransformKind::C2C2D { .. } => {
                let col = self.col.as_ref().unwrap();
                let t_col = col.plan().total_codelets();
                let (rows, cols, tiles) = (self.rows(), self.cols(), self.n_tiles());
                let row_end = rows * t_in;
                let t1_end = row_end + tiles;
                let col_end = t1_end + cols * t_col;
                if task < row_end {
                    self.emit_inner(&self.inner, task / t_in, task % t_in, false, &mut f);
                } else if task < t1_end {
                    self.emit_transpose(task - row_end, true, &mut f);
                } else if task < col_end {
                    let t = task - t1_end;
                    self.emit_inner(col, t / t_col, t % t_col, true, &mut f);
                } else {
                    assert!(task < col_end + tiles, "task {task} out of range");
                    self.emit_transpose(task - col_end, false, &mut f);
                }
            }
        }
    }

    /// Classify composite task `task` — the same decode
    /// [`KindWorkload::for_each_op`] performs, exposed so cost models (the
    /// simulator) and reports can price a task without re-deriving the
    /// numbering.
    pub fn task_class(&self, task: CodeletId) -> KindTaskClass {
        let t_in = self.inner.plan().total_codelets();
        let inner_q = |w: &Workload, t: CodeletId| KindTaskClass::Inner {
            q: w.plan().levels(w.plan().stage_of(t)),
        };
        match self.kind {
            TransformKind::C2C => inner_q(&self.inner, task),
            TransformKind::R2C => {
                if task < t_in {
                    inner_q(&self.inner, task)
                } else {
                    let (lo, hi) = self.pair_range(task - t_in);
                    KindTaskClass::Pair { bins: hi - lo }
                }
            }
            TransformKind::C2R => {
                let np = self.n_pair_tasks();
                if task < np {
                    let (lo, hi) = self.pair_range(task);
                    KindTaskClass::Pair { bins: hi - lo }
                } else if task < np + t_in {
                    inner_q(&self.inner, task - np)
                } else {
                    let radix = self.inner.plan().radix();
                    let u = task - np - t_in;
                    let (lo, hi) = (u * radix, ((u + 1) * radix).min(self.half()));
                    KindTaskClass::Finalize { elems: hi - lo }
                }
            }
            TransformKind::C2C2D { .. } => {
                let col = self.col.as_ref().unwrap();
                let t_col = col.plan().total_codelets();
                let (rows, cols, tiles) = (self.rows(), self.cols(), self.n_tiles());
                let row_end = rows * t_in;
                let t1_end = row_end + tiles;
                let col_end = t1_end + cols * t_col;
                if task < row_end {
                    inner_q(&self.inner, task % t_in)
                } else if task < t1_end || task >= col_end {
                    let b = 1usize << self.block_log2;
                    KindTaskClass::Tile { elems: b * b }
                } else {
                    inner_q(col, (task - t1_end) % t_col)
                }
            }
        }
    }

    /// The memory footprint of composite task `task` — every byte range it
    /// touches, classified read or write.
    pub fn footprint(&self, task: CodeletId) -> Vec<MemRange> {
        let mut out = Vec::new();
        self.for_each_op(task, |op| out.push(op.range));
        out
    }
}

/// Coarse class of one composite task — what work it does, for cost models
/// and reports. Obtained from [`KindWorkload::task_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindTaskClass {
    /// A codelet of an inner complex FFT wave.
    Inner {
        /// Butterfly levels of the codelet's stage.
        q: u32,
    },
    /// An untangle/tangle task over conjugate-symmetric bin pairs.
    Pair {
        /// Bin pairs processed.
        bins: usize,
    },
    /// A transpose tile move.
    Tile {
        /// Elements moved.
        elems: usize,
    },
    /// A `c2r` finalize span (conjugate + scale).
    Finalize {
        /// Elements scaled.
        elems: usize,
    },
}

/// The closed-form element addressing of one stage: the address generator
/// every kernel calls, so a plan stores no gather table.
///
/// Stage `j` of `q` levels runs `N / 2^q` independent `2^q`-point
/// sub-transforms ("groups"). Slot `x` of sub-transform `g` lives at
///
/// ```text
/// element(g, x) = ((g >> p·j) << (p·j + q)) | (x << p·j) | (g & (2^{p·j} − 1))
/// ```
///
/// and codelet `idx` runs the `2^{p−q}` consecutive sub-transforms from
/// `idx · 2^{p−q}`, its local buffer slot `s` being slot `s mod 2^q` of
/// sub-transform `s >> q` ([`StageAddressing::codelet_element`]). This is
/// [`FftPlan::for_each_element`] in closed form. Two facts the lane kernel
/// rests on follow from it: each stage partitions `0..N` (`fgcheck`'s
/// FG404), and for `j ≥ 1` sub-transforms `g` and `g + 1` (`g` even) sit
/// in adjacent elements at every slot, so one two-complex vector holds the
/// same slot of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageAddressing {
    /// `p·j`: log2 of the element stride between the slots of one
    /// sub-transform (0 in stage 0, whose sub-transforms are contiguous).
    pub stride_log2: u32,
    /// `q`: butterfly levels of the stage; a sub-transform has `2^q` slots.
    pub levels: u32,
    /// `p − q`: log2 of the sub-transforms one codelet runs.
    pub groups_log2: u32,
}

impl StageAddressing {
    /// The addressing of `stage` of `plan`.
    pub fn of(plan: &FftPlan, stage: usize) -> Self {
        let q = plan.levels(stage);
        Self {
            stride_log2: plan.radix_log2() * stage as u32,
            levels: q,
            groups_log2: plan.radix_log2() - q,
        }
    }

    /// Element holding slot `x` (`< 2^q`) of sub-transform `g`.
    #[inline(always)]
    pub fn element(&self, g: usize, x: usize) -> usize {
        let s = self.stride_log2;
        ((g >> s) << (s + self.levels)) | (x << s) | (g & low_mask(s))
    }

    /// Element in local buffer slot `slot` (`< 2^p`) of codelet `idx`.
    #[inline(always)]
    pub fn codelet_element(&self, idx: usize, slot: usize) -> usize {
        let g = (idx << self.groups_log2) | (slot >> self.levels);
        self.element(g, slot & low_mask(self.levels))
    }

    /// Sub-transforms per codelet, `2^{p−q}`.
    #[inline]
    pub fn groups(&self) -> usize {
        1 << self.groups_log2
    }

    /// Visit a codelet's butterflies in execution order — level `ll`, then
    /// sub-transform `g < G`, then butterfly `b < 2^(q−1)` — as `f(lo, hi,
    /// w)` over its local buffer `buf` (`2^p` slots) and its run `run`
    /// (the [`twiddle_loads`] values in [`for_each_twiddle_index`] order):
    /// the butterfly combines slots `g·2^q + ((b >> ll) << (ll+1) | (b mod
    /// 2^ll))` and that plus `2^ll`, with the run's entry `(2^ll − 1)·G +
    /// g·2^ll + (b mod 2^ll)`. Every codelet of the stage applies this one
    /// pattern. Panics when `run` is shorter than a run.
    #[inline(always)]
    pub fn for_each_butterfly<T, W>(
        &self,
        buf: &mut [T],
        run: &[W],
        mut f: impl FnMut(&mut T, &mut T, &W),
    ) {
        let (q, groups) = (self.levels, self.groups());
        for ll in 0..q {
            let span = 1usize << ll;
            let level = &run[(span - 1) * groups..][..groups * span];
            for (sub, twiddles) in buf.chunks_exact_mut(1 << q).zip(level.chunks_exact(span)) {
                for block in sub.chunks_exact_mut(2 * span) {
                    let (lo, hi) = block.split_at_mut(span);
                    for ((lo, hi), w) in lo.iter_mut().zip(hi).zip(twiddles) {
                        f(lo, hi, w);
                    }
                }
            }
        }
    }
}

/// The local butterfly pattern of one stage: `(lo, hi)` buffer-index pairs
/// in execution order ([`StageAddressing::for_each_butterfly`]). The
/// pattern depends only on the stage — every codelet of the stage applies
/// the same pairs to its gathered buffer — while the twiddle factors differ
/// per codelet (see [`append_twiddle_run`]). Kernels compute it; this list
/// is for harnesses and oracles.
pub fn butterfly_pairs(plan: &FftPlan, stage: usize) -> Vec<(u32, u32)> {
    let mut slots: Vec<u32> = (0..plan.radix() as u32).collect();
    let mut pairs = Vec::with_capacity((plan.levels(stage) as usize) << (plan.radix_log2() - 1));
    StageAddressing::of(plan, stage).for_each_butterfly(
        &mut slots,
        &vec![(); twiddle_loads(plan, stage)],
        |&mut lo, &mut hi, _| pairs.push((lo, hi)),
    );
    pairs
}

/// Append the twiddle factors codelet `(stage, idx)` consumes — one per
/// butterfly, in [`butterfly_pairs`] order — to `out`. The values are
/// bitwise the ones the kernel would load, so replaying them against the
/// pair pattern reproduces its arithmetic exactly.
pub fn append_twiddle_run(
    plan: &FftPlan,
    twiddles: &TwiddleTable,
    stage: usize,
    idx: usize,
    out: &mut Vec<Complex64>,
) {
    let p = plan.radix_log2();
    let q = plan.levels(stage);
    let pj = p * stage as u32;
    let n_log2 = plan.n_log2();
    let groups = 1usize << (p - q);
    let group_size = 1usize << q;
    let first_group = idx << (p - q);
    for ll in 0..q {
        let l = pj + ll;
        let shift = n_log2 - l - 1;
        let ll_mask = (1usize << ll) - 1;
        for g_rel in 0..groups {
            let g = first_group + g_rel;
            let g_low = g & low_mask(pj);
            for b in 0..group_size / 2 {
                let o = ((b & ll_mask) << pj) + g_low;
                out.push(twiddles.get(o << shift));
            }
        }
    }
}

/// Twiddle classes of one stage: codelet `idx` consumes exactly the
/// distinct twiddles of class `idx mod classes`, so a plan stores one run
/// per class instead of one per codelet. A codelet's values depend on its
/// index only through `g mod 2^{p·j}` for its groups `g = idx·2^{p−q} +
/// g_rel`, which gives `min(cps, 2^{p·j − (p − q)})` classes: one in stage
/// 0, `P` in a full stage 1, and one per codelet in the last stage.
pub fn twiddle_classes(plan: &FftPlan, stage: usize) -> usize {
    let p = plan.radix_log2();
    let q = plan.levels(stage);
    let pj = p * stage as u32;
    let cps = plan.codelets_per_stage();
    match 1usize.checked_shl(pj.saturating_sub(p - q)) {
        Some(classes) => classes.min(cps),
        None => cps,
    }
}

/// Append the distinct twiddles of class `class` of `stage` — the
/// [`twiddle_loads`] values in [`for_each_twiddle_index`] order
/// (level-major, then group, then `t < 2^ll`) — to `out`, copied bitwise
/// from `twiddles`. Each butterfly reads the run at the position
/// [`StageAddressing::for_each_butterfly`] gives it; replaying the pattern
/// with those values is exactly [`append_twiddle_run`]'s expansion.
pub fn append_class_run(
    plan: &FftPlan,
    twiddles: &TwiddleTable,
    stage: usize,
    class: usize,
    out: &mut Vec<Complex64>,
) {
    for_each_twiddle_index(plan, stage, class, |t| out.push(twiddles.get(t)));
}

/// Count the twiddle-factor loads one codelet performs (distinct logical
/// indices, each loaded once): `P − 1` for a full stage, matching the
/// paper's "63 twiddle factors" for 64-point codelets. This is also the
/// length of a class run ([`append_class_run`]).
pub fn twiddle_loads(plan: &FftPlan, stage: usize) -> usize {
    let p = plan.radix_log2();
    let q = plan.levels(stage);
    // Per level ll: 2^ll distinct (x_lo mod 2^ll) values × one g_low per
    // group; groups = 2^{p-q}.
    let groups = 1usize << (p - q);
    let per_group: usize = (0..q).map(|ll| 1usize << ll).sum();
    groups * per_group
}

/// Visit the logical twiddle index of every twiddle load of a codelet, in
/// load order (the simulator workload emits its address stream from this).
pub fn for_each_twiddle_index(plan: &FftPlan, stage: usize, idx: usize, mut f: impl FnMut(usize)) {
    let p = plan.radix_log2();
    let q = plan.levels(stage);
    let pj = p * stage as u32;
    let n_log2 = plan.n_log2();
    let groups = 1usize << (p - q);
    let first_group = idx << (p - q);
    for ll in 0..q {
        let l = pj + ll;
        let shift = n_log2 - l - 1;
        for g_rel in 0..groups {
            let g = first_group + g_rel;
            let g_low = g & low_mask(pj);
            for t in 0..1usize << ll {
                let o = (t << pj) + g_low;
                f(o << shift);
            }
        }
    }
}

/// Whether `stage`'s twiddles are unshared: one class per codelet
/// ([`twiddle_classes`]` == codelets_per_stage`) past stage 0, so class
/// runs would only copy base-table values codelet by codelet. Exactly the
/// last stage of every plan of two stages or more. Plans store no runs
/// for such a stage; their kernels read the base table at
/// [`TwiddleIndex`]'s slots. Stage 0 has one class, which its codelets
/// share (a lone codelet included): its run of at most `P − 1` values
/// stays stored, and its passes read each level's twiddles from it as
/// consecutive vectors.
pub fn twiddles_unshared(plan: &FftPlan, stage: usize) -> bool {
    stage > 0 && twiddle_classes(plan, stage) == plan.codelets_per_stage()
}

/// The direct twiddle index generator of one stage: where in a
/// [`TwiddleTable`] of either layout the twiddle of level `ll`, butterfly
/// offset `t < 2^ll` and sub-transform `g` is stored.
///
/// The logical index is [`for_each_twiddle_index`]'s
/// `((t << p·j) + (g mod 2^{p·j})) << (n − p·j − ll − 1)`: two disjoint
/// bit fields, the *lane* field from `g` and the *offset* field from `t`.
/// Every layout maps their sum to the sum of their images modulo
/// `2^(n−1)`, so the slot is `(lane(g, ll) + offset(ll, t)) mod 2^(n−1)`:
///
/// * `Linear`: the lane is the base, the offset `t · 2^(n−ll−1)`;
/// * `MultiplicativeHash`: the map is multiplication mod `2^(n−1)`,
///   linear;
/// * `BitReversedHash`: the two fields reverse separately into disjoint
///   fields, and their OR is their sum.
///
/// One mechanism for every layout. The offsets depend on the stage only,
/// so a plan keeps them as a table of `2^q − 1` entries (level-major, as a
/// class run: [`TwiddleIndex::offsets`]); the lanes are computed per
/// sub-transform. Values are read from the table, never recomputed, so
/// they are bitwise the class run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwiddleIndex {
    /// `n`: the transform size exponent; the table holds `2^(n−1)` slots.
    pub n_log2: u32,
    /// `p·j`: bits of `g` that select the lane field.
    pub stride_log2: u32,
    /// The table's layout.
    pub layout: TwiddleLayout,
}

impl TwiddleIndex {
    /// The generator of `stage` of `plan` over a table of `layout`.
    pub fn of(plan: &FftPlan, stage: usize, layout: TwiddleLayout) -> Self {
        Self {
            n_log2: plan.n_log2(),
            stride_log2: plan.radix_log2() * stage as u32,
            layout,
        }
    }

    /// `2^(n−1) − 1`: every slot the generator yields is masked by it, so
    /// it is in bounds for the table by construction.
    #[inline(always)]
    pub fn mask(&self) -> usize {
        low_mask(self.n_log2 - 1)
    }

    /// The image of sub-transform `g`'s field at level `ll`.
    #[inline(always)]
    pub fn lane(&self, g: usize, ll: u32) -> usize {
        let s = self.stride_log2;
        let field = (g & low_mask(s)) << (self.n_log2 - s - ll - 1);
        TwiddleTable::map_index(field, self.n_log2, self.layout)
    }

    /// The image of butterfly offset `t`'s field at level `ll`.
    #[inline]
    pub fn offset(&self, ll: u32, t: usize) -> usize {
        TwiddleTable::map_index(t << (self.n_log2 - ll - 1), self.n_log2, self.layout)
    }

    /// Whether, at level `ll`, sub-transforms `g` and `g + 1` (`g` even)
    /// read adjacent slots at every offset: the linear layout past stage 0
    /// at the level whose lane field is not shifted (the last stage's
    /// level `q − 1`), where the lane is `g mod 2^{p·j}` and no sum
    /// reaches `2^(n−1)`.
    #[inline(always)]
    pub fn adjacent_lanes(&self, ll: u32) -> bool {
        self.layout == TwiddleLayout::Linear
            && self.stride_log2 > 0
            && self.n_log2 == self.stride_log2 + ll + 1
    }

    /// The slot of level `ll`'s twiddle `t` for sub-transform `g`.
    #[inline]
    pub fn slot(&self, g: usize, ll: u32, t: usize) -> usize {
        (self.lane(g, ll) + self.offset(ll, t)) & self.mask()
    }

    /// The offsets of a stage of `levels` levels, level-major: entry
    /// `(2^ll − 1) + t` is [`TwiddleIndex::offset`]`(ll, t)`, the class-run
    /// position of butterfly offset `t` in a one-group run.
    pub fn offsets(&self, levels: u32) -> Vec<u32> {
        (0..levels)
            .flat_map(|ll| (0..1usize << ll).map(move |t| self.offset(ll, t) as u32))
            .collect()
    }
}

#[inline]
pub(crate) fn low_mask(bits: u32) -> usize {
    if bits as usize >= usize::BITS as usize {
        usize::MAX
    } else {
        (1usize << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The address generator the kernels compute with, at every codelet
    /// radix 2^1..2^7 and size 2^4..2^10 (Miri runs the `miri_` tests):
    /// every stage's addresses are in bounds, claim each element once,
    /// equal [`FftPlan::for_each_element`], and put sub-transforms `g` and
    /// `g + 1` (`g` even) in adjacent elements from stage 1 on — the lane
    /// kernel's vector loads rest on all four.
    #[test]
    fn miri_stage_addressing_partitions_every_stage() {
        for radix_log2 in 1..=crate::plan::MAX_RADIX_LOG2 {
            for n_log2 in 4u32..=10 {
                let plan = FftPlan::new(n_log2, radix_log2);
                let n = plan.n();
                for stage in 0..plan.stages() {
                    let addr = StageAddressing::of(&plan, stage);
                    let mut seen = vec![false; n];
                    for idx in 0..plan.codelets_per_stage() {
                        plan.for_each_element(stage, idx, |slot, e| {
                            assert_eq!(addr.codelet_element(idx, slot), e);
                            assert!(e < n && !seen[e], "element {e}");
                            seen[e] = true;
                        });
                    }
                    assert!(seen.iter().all(|&s| s));
                    if stage > 0 {
                        for g in (0..n >> addr.levels).step_by(2) {
                            for x in 0..1 << addr.levels {
                                assert_eq!(addr.element(g + 1, x), addr.element(g, x) + 1);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The direct twiddle index both kernels read an unshared stage at, at
    /// every codelet radix 2^1..2^7 and size 2^4..2^10 under every layout
    /// (Miri runs the `miri_` tests): only the last stage of a plan of two
    /// stages or more is unshared, and there every index the lane kernel forms from the stage's offset
    /// table is in the table (`< N/2`), equals the generator's and the
    /// authority's slot, and sits next to its partner lane's wherever the
    /// kernel loads both lanes as one vector.
    #[test]
    fn miri_direct_twiddle_indices_stay_in_the_table() {
        for radix_log2 in 1..=crate::plan::MAX_RADIX_LOG2 {
            for n_log2 in 4u32..=10 {
                let plan = FftPlan::new(n_log2, radix_log2);
                let last = plan.stages() - 1;
                let unshared = |s| s == last && s > 0;
                assert!((0..plan.stages()).all(|s| twiddles_unshared(&plan, s) == unshared(s)));
                if !unshared(last) {
                    continue;
                }
                let addr = StageAddressing::of(&plan, last);
                for layout in [
                    TwiddleLayout::Linear,
                    TwiddleLayout::BitReversedHash,
                    TwiddleLayout::MultiplicativeHash,
                ] {
                    let index = TwiddleIndex::of(&plan, last, layout);
                    let offsets = index.offsets(addr.levels);
                    assert_eq!(offsets.len(), (1 << addr.levels) - 1);
                    for idx in 0..plan.codelets_per_stage() {
                        let mut want = Vec::new();
                        for_each_twiddle_index(&plan, last, idx, |t| {
                            want.push(TwiddleTable::map_index(t, n_log2, layout))
                        });
                        let mut want = want.into_iter();
                        for ll in 0..addr.levels {
                            for g in idx << addr.groups_log2..(idx + 1) << addr.groups_log2 {
                                for t in 0..1usize << ll {
                                    let offset = offsets[(1 << ll) - 1 + t] as usize;
                                    let slot = (index.lane(g, ll) + offset) & index.mask();
                                    assert!(slot < plan.n() / 2, "slot {slot}");
                                    assert_eq!(slot, index.slot(g, ll, t));
                                    assert_eq!(Some(slot), want.next());
                                    if index.adjacent_lanes(ll) && g % 2 == 0 {
                                        assert_eq!(index.slot(g + 1, ll, t), slot + 1);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn twiddle_loads_full_stage_is_p_minus_1() {
        let plan = FftPlan::new(18, 6);
        for stage in 0..plan.stages() {
            assert_eq!(twiddle_loads(&plan, stage), 63);
        }
        let plan8 = FftPlan::new(9, 3);
        assert_eq!(twiddle_loads(&plan8, 0), 7);
    }

    #[test]
    fn class_runs_expand_to_every_codelets_twiddle_run() {
        for (n_log2, p_log2) in [(1u32, 1u32), (9, 3), (12, 7), (13, 6), (16, 6), (7, 3)] {
            let plan = FftPlan::new(n_log2, p_log2);
            for layout in [TwiddleLayout::Linear, TwiddleLayout::BitReversedHash] {
                let tw = TwiddleTable::new(n_log2, layout);
                for stage in 0..plan.stages() {
                    let classes = twiddle_classes(&plan, stage);
                    let addressing = StageAddressing::of(&plan, stage);
                    let runs: Vec<Vec<Complex64>> = (0..classes)
                        .map(|class| {
                            let mut run = Vec::new();
                            append_class_run(&plan, &tw, stage, class, &mut run);
                            assert_eq!(run.len(), twiddle_loads(&plan, stage));
                            run
                        })
                        .collect();
                    for idx in 0..plan.codelets_per_stage() {
                        let mut want = Vec::new();
                        append_twiddle_run(&plan, &tw, stage, idx, &mut want);
                        let run = &runs[idx % classes];
                        let mut got = Vec::new();
                        addressing.for_each_butterfly(
                            &mut vec![(); plan.radix()],
                            run,
                            |_, _, &w| got.push(w),
                        );
                        assert_eq!(got, want, "2^{n_log2}/r{p_log2} stage {stage} idx {idx}");
                    }
                }
            }
        }
        let plan = FftPlan::new(18, 6);
        let classes: Vec<usize> = (0..3).map(|s| twiddle_classes(&plan, s)).collect();
        assert_eq!(classes, [1, 64, plan.codelets_per_stage()]);
    }

    #[test]
    fn twiddle_loads_partial_stage() {
        let plan = FftPlan::new(13, 6); // last stage q=1
        let last = plan.stages() - 1;
        // 2^{6-1}=32 groups × (2^0) = 32 loads.
        assert_eq!(twiddle_loads(&plan, last), 32);
    }

    #[test]
    fn for_each_twiddle_index_count_and_range() {
        for (n_log2, p_log2) in [(13u32, 6u32), (12, 6), (9, 3)] {
            let plan = FftPlan::new(n_log2, p_log2);
            for stage in 0..plan.stages() {
                let mut count = 0;
                for_each_twiddle_index(&plan, stage, 1 % plan.codelets_per_stage(), |t| {
                    assert!(t < plan.n() / 2, "twiddle index out of table");
                    count += 1;
                });
                assert_eq!(count, twiddle_loads(&plan, stage), "stage {stage}");
            }
        }
    }

    #[test]
    fn early_stage_twiddle_indices_are_coarse_multiples() {
        // The root cause of the paper: stage-0/1 twiddle indices are
        // multiples of a large power of two → one DRAM bank under the linear
        // layout.
        let plan = FftPlan::new(18, 6);
        for_each_twiddle_index(&plan, 0, 3, |t| {
            assert_eq!(t % (1 << 11), 0, "stage-0 indices are multiples of 2^(n-7)");
        });
        for_each_twiddle_index(&plan, 1, 3, |t| {
            assert_eq!(t % (1 << 5), 0);
        });
    }

    #[test]
    fn footprint_has_paper_op_counts_and_order() {
        let plan = FftPlan::new(12, 6);
        let w = Workload::new(plan, TwiddleLayout::Linear);
        let mut ops = Vec::new();
        w.for_each_op(0, |op| ops.push(op));
        // 64 gather loads + 63 twiddle loads + 64 scatter stores, in order.
        assert_eq!(ops.len(), 64 + 63 + 64);
        assert!(ops[..64]
            .iter()
            .all(|o| o.region == Region::Data && !o.range.write));
        assert!(ops[64..127]
            .iter()
            .all(|o| o.region == Region::Twiddle && !o.range.write));
        assert!(ops[127..]
            .iter()
            .all(|o| o.region == Region::Data && o.range.write));
        assert!(ops.iter().all(|o| o.range.len() == ELEM_BYTES));
        assert_eq!(w.footprint(0).len(), ops.len());
    }

    #[test]
    fn oversized_codelets_spill_privately() {
        let plan = FftPlan::new(14, 7); // 128-point codelets
        let w = Workload::new(plan, TwiddleLayout::Linear);
        let mut spill_a = Vec::new();
        w.for_each_op(0, |op| {
            if op.region == Region::Spill {
                spill_a.push(op.range);
            }
        });
        // One extra level beyond the scratchpad: 128 stores + 128 loads.
        assert_eq!(spill_a.len(), 256);
        // Private region: task 1's spill never overlaps task 0's.
        let mut disjoint = true;
        w.for_each_op(1, |op| {
            if op.region == Region::Spill {
                disjoint &= !spill_a.iter().any(|r| r.overlaps(&op.range));
            }
        });
        assert!(disjoint, "spill regions must be per-task private");
    }

    #[test]
    fn schedule_spec_covers_every_codelet_once() {
        for n_log2 in [12u32, 13] {
            let plan = FftPlan::new(n_log2, 6);
            for v in Version::paper_set(SeedOrder::Natural) {
                let mut seen = vec![0u32; plan.total_codelets()];
                match ScheduleSpec::of(plan, v) {
                    ScheduleSpec::Phased { phases } => {
                        assert_eq!(phases.len(), plan.stages());
                        for id in phases.into_iter().flatten() {
                            seen[id] += 1;
                        }
                    }
                    ScheduleSpec::Fine { graph, seeds } => {
                        assert_eq!(seeds.len(), plan.codelets_per_stage());
                        for id in codelet::graph::execute_sequential(&graph, |_| {}) {
                            seen[id] += 1;
                        }
                    }
                    ScheduleSpec::Guided {
                        early,
                        early_seeds,
                        late,
                        late_seeds,
                    } => {
                        assert_eq!(
                            early.expected() + late.expected(),
                            plan.total_codelets(),
                            "phases partition the codelets"
                        );
                        assert_eq!(early_seeds.len(), plan.codelets_per_stage());
                        assert_eq!(late_seeds.len(), plan.codelets_per_stage());
                        for count in seen.iter_mut() {
                            *count += 1; // partition checked by expected()
                        }
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "{} n=2^{n_log2}: every codelet exactly once",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn guided_spec_falls_back_below_three_stages() {
        let plan = FftPlan::new(12, 6); // 2 stages
        match ScheduleSpec::of(plan, Version::FineGuided) {
            ScheduleSpec::Fine { seeds, .. } => {
                assert_eq!(seeds, (0..plan.codelets_per_stage()).collect::<Vec<_>>());
            }
            other => panic!("expected fine fallback, got {other:?}"),
        }
    }

    #[test]
    fn tuning_validation_catches_bad_overrides() {
        let plan = FftPlan::new(13, 6);
        let cps = plan.codelets_per_stage();
        assert!(ScheduleTuning::identity().validate(&plan).is_ok());
        let short = ScheduleTuning {
            pool_order: Some(vec![0, 1]),
            last_early: None,
            transpose_block_log2: None,
        };
        assert!(short.validate(&plan).is_err(), "wrong length");
        let dup = ScheduleTuning {
            pool_order: Some(vec![0; cps]),
            last_early: None,
            transpose_block_log2: None,
        };
        assert!(dup.validate(&plan).is_err(), "not a permutation");
        let bad_split = ScheduleTuning {
            pool_order: None,
            last_early: Some(plan.stages() - 1),
            transpose_block_log2: None,
        };
        assert!(bad_split.validate(&plan).is_err(), "empty late phase");
        let good = ScheduleTuning {
            pool_order: Some((0..cps).rev().collect()),
            last_early: Some(0),
            transpose_block_log2: None,
        };
        assert!(good.validate(&plan).is_ok());
    }

    #[test]
    fn identity_tuning_matches_untuned_spec() {
        let plan = FftPlan::new(13, 6);
        let id = ScheduleTuning::identity();
        for v in Version::paper_set(SeedOrder::EvenOdd) {
            let plain = ScheduleSpec::of(plan, v);
            let tuned = ScheduleSpec::of_tuned(plan, v, Some(&id));
            match (&plain, &tuned) {
                (ScheduleSpec::Phased { phases: a }, ScheduleSpec::Phased { phases: b }) => {
                    assert_eq!(a, b)
                }
                (ScheduleSpec::Fine { seeds: a, .. }, ScheduleSpec::Fine { seeds: b, .. }) => {
                    assert_eq!(a, b)
                }
                (
                    ScheduleSpec::Guided {
                        early_seeds: ea,
                        late_seeds: la,
                        ..
                    },
                    ScheduleSpec::Guided {
                        early_seeds: eb,
                        late_seeds: lb,
                        ..
                    },
                ) => {
                    assert_eq!(ea, eb);
                    assert_eq!(la, lb);
                }
                _ => panic!("{}: identity tuning changed the spec shape", v.name()),
            }
        }
    }

    #[test]
    fn tuned_pool_order_reaches_every_phase() {
        let plan = FftPlan::new(18, 6); // 3 full stages
        let cps = plan.codelets_per_stage();
        let perm: Vec<usize> = (0..cps).rev().collect();
        let tuning = ScheduleTuning {
            pool_order: Some(perm.clone()),
            last_early: None,
            transpose_block_log2: None,
        };
        match ScheduleSpec::of_tuned(plan, Version::Coarse, Some(&tuning)) {
            ScheduleSpec::Phased { phases } => {
                for (s, phase) in phases.iter().enumerate() {
                    let expect: Vec<CodeletId> = perm.iter().map(|&i| s * cps + i).collect();
                    assert_eq!(phase, &expect, "stage {s} issue order permuted");
                }
            }
            other => panic!("expected phased, got {other:?}"),
        }
        match ScheduleSpec::of_tuned(plan, Version::Fine(SeedOrder::Natural), Some(&tuning)) {
            ScheduleSpec::Fine { seeds, .. } => assert_eq!(seeds, perm),
            other => panic!("expected fine, got {other:?}"),
        }
        match ScheduleSpec::of_tuned(plan, Version::FineGuided, Some(&tuning)) {
            ScheduleSpec::Guided { early_seeds, .. } => assert_eq!(early_seeds, perm),
            other => panic!("expected guided, got {other:?}"),
        }
    }

    #[test]
    fn tuned_guided_split_moves_the_barrier() {
        let plan = FftPlan::new(24, 6); // 4 full stages
        let tuning = ScheduleTuning {
            pool_order: None,
            last_early: Some(0),
            transpose_block_log2: None,
        };
        match ScheduleSpec::of_tuned(plan, Version::FineGuided, Some(&tuning)) {
            ScheduleSpec::Guided { early, late, .. } => {
                assert_eq!(early.expected(), plan.codelets_per_stage());
                assert_eq!(late.expected(), 3 * plan.codelets_per_stage());
                assert_eq!(
                    early.expected() + late.expected(),
                    plan.total_codelets(),
                    "moved barrier still partitions the codelets"
                );
            }
            other => panic!("expected guided, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid schedule tuning")]
    fn of_tuned_rejects_invalid_tuning() {
        let plan = FftPlan::new(13, 6);
        let bad = ScheduleTuning {
            pool_order: Some(vec![1, 2, 3]),
            last_early: None,
            transpose_block_log2: None,
        };
        ScheduleSpec::of_tuned(plan, Version::FineGuided, Some(&bad));
    }

    #[test]
    fn shared_interleave_is_the_machine_constant() {
        let il = interleave();
        assert_eq!(il, Interleave::cyclops64());
        assert_eq!(il.unit_bytes, 64);
        assert_eq!(il.banks, 4);
    }
}
