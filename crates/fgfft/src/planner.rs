//! Reusable execution plans and the wisdom-style plan cache.
//!
//! A [`Plan`] is the only way the host runs a transform. Everything a
//! transform needs is derived once from its [`PlanKey`]; the hot path then
//! only streams those flat arrays. This module splits the two concerns:
//!
//! * [`Plan`] — everything derivable from a [`PlanKey`], computed once:
//!   the twiddle table, the codelet-graph schedule **lowered onto tiles**
//!   of consecutive codelets ([`TileProgram`], flat CSR arrays), and
//!   per-stage execution tables (butterfly pair pattern with its twiddle
//!   slots, and one run of distinct twiddles per twiddle class) so the
//!   hot path streams flat arrays instead of redoing twiddle lookups per
//!   call. Element addresses are not stored: kernels compute them with
//!   each stage's [`StageAddressing`], and [`bit_reverse_tiled`] computes
//!   the bit reversal. `Plan::execute` runs one transform as a batch of
//!   one; `Plan::execute_batch` runs many same-plan transforms through a
//!   single runtime dispatch ([`codelet::BatchProgram`]). Both go through
//!   one dispatch that hands each tile to the kernel in one call.
//!   [`Plan::run_codelet`] exposes the unit of work itself for harnesses
//!   that drive their own schedule.
//! * [`Planner`] — a sharded, single-flight cache of `Arc<Plan>` keyed by
//!   [`PlanKey`] (FFTW calls the same idea *wisdom*). Concurrent requests
//!   for one key build the plan exactly once: the first thread computes
//!   while the others block on the slot and share the result.
//!
//! A cached plan computes exactly what a freshly built one does: the
//! codelet DAG fixes the arithmetic, and the plan merely caches the DAG.

use crate::backend::{CodeletKernel, ScalarKernel};
use crate::bitrev::{bit_reverse_swaps, bit_reverse_tiled};
use crate::complex::Complex64;
use crate::exec::shared::SharedData;
use crate::exec::{ExecStats, Version};
use crate::plan::{FftPlan, MAX_RADIX_LOG2};
use crate::tiles::{TileProgram, TileSlice};
use crate::twiddle::{TwiddleLayout, TwiddleTable};
use crate::wisdom::{Wisdom, WisdomEntry, WisdomStatus};
use crate::workload::{
    self, ScheduleSpec, ScheduleTuning, StageAddressing, TransformKind,
    DEFAULT_TRANSPOSE_BLOCK_LOG2, SCRATCHPAD_RADIX_LOG2,
};
use codelet::graph::{BatchProgram, CodeletId, CsrProgram};
use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use codelet::stats::RunStats;
use fgsupport::sync::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Identity of a cacheable plan. Two requests with equal keys are served by
/// the same [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Transform size exponent (`N = 2^n_log2`; `rows · cols` for 2D).
    pub n_log2: u32,
    /// Codelet radix exponent, clamped to the transform size.
    pub radix_log2: u32,
    /// Scheduling algorithm.
    pub version: Version,
    /// Twiddle-table memory layout.
    pub layout: TwiddleLayout,
    /// What is being transformed (complex 1D, real, 2D).
    pub kind: TransformKind,
}

impl PlanKey {
    /// Key for an `n`-point transform (`n` a power of two ≥ 2) with the
    /// default 64-point codelets.
    pub fn new(n: usize, version: Version, layout: TwiddleLayout) -> Self {
        Self::with_radix(n, version, layout, 6)
    }

    /// Key with an explicit codelet radix exponent (1..=7). The radix is
    /// clamped to the transform size so equivalent configurations share one
    /// cache entry.
    pub fn with_radix(n: usize, version: Version, layout: TwiddleLayout, radix_log2: u32) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "length must be a power of two ≥ 2"
        );
        assert!(
            (1..=MAX_RADIX_LOG2).contains(&radix_log2),
            "radix_log2 must be in 1..={MAX_RADIX_LOG2}"
        );
        let n_log2 = n.trailing_zeros();
        Self {
            n_log2,
            radix_log2: radix_log2.min(n_log2),
            version,
            layout,
            kind: TransformKind::C2C,
        }
    }

    /// Key for a non-C2C transform kind of logical size `n` (`2^rows_log2 ·
    /// 2^cols_log2` for 2D, the real length for r2c/c2r). Panics when the
    /// kind does not fit the size (see [`TransformKind::validate`]).
    /// Composite kinds clamp the radix to the scratchpad and the inner FFT
    /// size, so equivalent configurations share one cache entry.
    pub fn with_kind(
        kind: TransformKind,
        n: usize,
        version: Version,
        layout: TwiddleLayout,
        radix_log2: u32,
    ) -> Self {
        let mut key = Self::with_radix(n, version, layout, radix_log2);
        if let Err(why) = kind.validate(key.n_log2) {
            panic!("invalid transform kind: {why}");
        }
        if !kind.is_c2c() {
            key.radix_log2 = key
                .radix_log2
                .min(SCRATCHPAD_RADIX_LOG2)
                .min(kind.inner_n_log2(key.n_log2));
        }
        key.kind = kind;
        key
    }

    /// Transform size `N` (logical: the real length for real kinds,
    /// `rows · cols` for 2D).
    pub fn n(&self) -> usize {
        1 << self.n_log2
    }

    /// Complex slots of the execution buffer: `N` for C2C/2D, `N/2` packed
    /// slots for the real kinds.
    pub fn buffer_len(&self) -> usize {
        self.kind.buffer_len(self.n_log2)
    }
}

/// Per-stage execution tables, FFTW-style: the butterfly and twiddle data a
/// codelet's inner loop would otherwise rederive per call, flattened into
/// arrays the hot path streams through sequentially. Element addresses are
/// not stored: kernels compute them with the stage's [`StageAddressing`].
#[derive(Debug)]
struct StageTable {
    /// The stage's closed-form element addressing.
    addressing: StageAddressing,
    /// The stage's local `(lo, hi)` butterfly pattern (shared by every
    /// codelet of the stage), in execution order.
    pairs: Vec<(u32, u32)>,
    /// Per butterfly, the position of its twiddle in a class run
    /// ([`workload::twiddle_slots`]); shared by every codelet.
    slots: Vec<u8>,
    /// Twiddle classes ([`workload::twiddle_classes`], a power of two):
    /// codelet `idx` reads the run of class `idx & (classes − 1)`.
    classes: usize,
    /// Distinct twiddles per class, class-major: `run_len` values each,
    /// copied bitwise from the plan's twiddle table at build time.
    twiddles: Vec<Complex64>,
    /// The stage's element indices, codelet-major, built on the first
    /// [`Plan::stage_table`] call for harnesses; execution, certification
    /// and `fgcheck` never read it.
    gather: OnceLock<Vec<u32>>,
}

impl StageTable {
    fn build(fft: &FftPlan, twiddles: &TwiddleTable, stage: usize) -> Self {
        let classes = workload::twiddle_classes(fft, stage);
        let mut tw = Vec::with_capacity(classes * workload::twiddle_loads(fft, stage));
        for class in 0..classes {
            workload::append_class_run(fft, twiddles, stage, class, &mut tw);
        }
        Self {
            addressing: StageAddressing::of(fft, stage),
            pairs: workload::butterfly_pairs(fft, stage),
            slots: workload::twiddle_slots(fft, stage),
            classes,
            twiddles: tw,
            gather: OnceLock::new(),
        }
    }

    fn view(&self) -> StageTables<'_> {
        StageTables {
            addressing: self.addressing,
            pairs: &self.pairs,
            slots: &self.slots,
            classes: self.classes,
            twiddles: &self.twiddles,
        }
    }

    /// Resident bytes; a harness gather view is not counted.
    fn bytes(&self) -> u64 {
        (self.pairs.len() * std::mem::size_of::<(u32, u32)>()
            + self.slots.len()
            + self.twiddles.len() * std::mem::size_of::<Complex64>()) as u64
    }
}

/// Borrowed view of one stage's execution tables — exactly what the
/// kernels read. Exposed so external verifiers (`fgcheck`'s pass 4) and
/// the certificate digests can inspect the lowering without re-deriving
/// it.
///
/// Codelet `idx` holds the elements [`StageAddressing::codelet_element`]
/// names, applies `pairs` in order, and butterfly `i` multiplies by
/// `run(idx)[slots[i]]`: the twiddles are stored once per *class*, not
/// once per codelet ([`workload::twiddle_classes`]).
#[derive(Debug, Clone, Copy)]
pub struct StageTables<'a> {
    /// The stage's element address generator parameters.
    pub addressing: StageAddressing,
    /// The stage's local `(lo, hi)` butterfly pattern, shared by every
    /// codelet of the stage, in execution order.
    pub pairs: &'a [(u32, u32)],
    /// Per butterfly (in `pairs` order), the position of its twiddle in
    /// the codelet's class run; shared by every codelet of the stage.
    pub slots: &'a [u8],
    /// Twiddle classes of the stage; codelet `idx` has class
    /// `idx & (classes − 1)`.
    pub classes: usize,
    /// The class runs, class-major, `twiddles.len() / classes` values each
    /// ([`workload::append_class_run`]).
    pub twiddles: &'a [Complex64],
}

impl<'a> StageTables<'a> {
    /// Values per class run (0 when the view has no classes).
    pub fn run_len(&self) -> usize {
        self.twiddles.len().checked_div(self.classes).unwrap_or(0)
    }

    /// The class of codelet `idx`.
    pub fn class_of(&self, idx: usize) -> usize {
        idx & self.classes.wrapping_sub(1)
    }

    /// The class run codelet `idx` reads, or `None` when the view's class
    /// map points outside `twiddles`.
    pub fn run(&self, idx: usize) -> Option<&'a [Complex64]> {
        let len = self.run_len();
        let start = self.class_of(idx).checked_mul(len)?;
        self.twiddles.get(start..start.checked_add(len)?)
    }
}

/// A view of one stage for harnesses written against stored gather
/// tables: [`StageTables`] plus `gather`, the stage's element indices
/// materialized from the address generator on the first
/// [`Plan::stage_table`] call and kept. Execution never reads it and
/// [`Plan::resident_bytes`] does not count it.
#[derive(Debug, Clone, Copy)]
pub struct StageTableView<'a> {
    /// Element indices, codelet-major: entry `idx · radix + slot` is
    /// [`StageAddressing::codelet_element`]`(idx, slot)`.
    pub gather: &'a [u32],
    /// As [`StageTables::pairs`].
    pub pairs: &'a [(u32, u32)],
    /// As [`StageTables::slots`].
    pub slots: &'a [u8],
    /// As [`StageTables::classes`].
    pub classes: usize,
    /// As [`StageTables::twiddles`].
    pub twiddles: &'a [Complex64],
}

/// What one codelet actually touched during a recorded execution
/// ([`Plan::execute_recorded`]): the observed counterpart of the workload
/// layer's static footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct TouchRecord {
    /// Global element indices gathered (buffer-slot order).
    pub reads: Vec<u32>,
    /// Global element indices scattered (buffer-slot order; the codelet
    /// writes exactly where it read).
    pub writes: Vec<u32>,
    /// Twiddle values consumed, one per butterfly, in pair-pattern order —
    /// bitwise the values the kernel multiplied by.
    pub twiddles: Vec<Complex64>,
}

/// The kind-specific extension of a composite plan: everything a non-C2C
/// transform needs beyond its inner complex FFT. `None` on 1D complex
/// plans, so the historical hot path pays nothing.
#[derive(Debug)]
enum KindExt {
    /// r2c/c2r: the precomputed untangle factors `e^{-2πik/N}` for
    /// `k = 0..=N/4` (satellite: derived once at build, reused across every
    /// call and batch member), and the direction.
    Real {
        untangle: Vec<Complex64>,
        inverse: bool,
    },
    /// 2D row–column: the plane shape, the transpose tile edge, and the
    /// column-wave plan (the outer plan's own tables drive the row wave).
    TwoD {
        rows_log2: u32,
        cols_log2: u32,
        block_log2: u32,
        col_plan: Box<Plan>,
    },
}

/// A fully precomputed, immutable, shareable FFT execution plan.
///
/// Construction ([`Plan::build`]) does all per-size derivation work;
/// [`Plan::execute`] only moves data. Plans are `Sync` and meant to live in
/// an `Arc` inside a [`Planner`] cache, shared by every thread transforming
/// that size.
///
/// A plan's [`TransformKind`] decides what the buffer holds and how the
/// inner complex FFT is wrapped: real kinds run the packed half-size FFT
/// plus an untangle/tangle pass, 2D runs a row wave, a blocked transpose, a
/// column wave, and a transpose back — all through the same certified
/// tables.
#[derive(Debug)]
pub struct Plan {
    key: PlanKey,
    tuning: Option<ScheduleTuning>,
    fft: FftPlan,
    twiddles: TwiddleTable,
    /// The bit-reversal transposition list, built on first request for
    /// harnesses ([`Plan::bitrev_swaps`]); execution never reads it.
    bitrev_swaps: OnceLock<Vec<(u32, u32)>>,
    tiles: TileProgram,
    tables: Vec<StageTable>,
    ext: Option<Box<KindExt>>,
    /// Whether every stage table (and a 2-D plan's column tables) has the
    /// canonical shape the vector kernel assumes, checked once at build.
    vector_ready: bool,
}

impl Plan {
    /// Derive the complete plan for `key`. This is the *cold path* a cache
    /// miss pays once — and a caller that builds per call pays always.
    pub fn build(key: PlanKey) -> Self {
        Self::build_tuned(key, None)
    }

    /// As [`Plan::build`], with the autotuner's schedule overrides applied
    /// (`None` builds the version's own schedule). Tuning reorders the
    /// initial codelet pool and may move the guided barrier; it never
    /// changes the arithmetic, so a tuned plan's results are bit-identical
    /// to the untuned plan's.
    pub fn build_tuned(key: PlanKey, tuning: Option<&ScheduleTuning>) -> Self {
        // The primary inner complex FFT: the whole transform for C2C, the
        // packed half for real kinds, the row transform for 2D.
        let inner_log2 = key.kind.inner_n_log2(key.n_log2);
        let fft = FftPlan::new(inner_log2, key.radix_log2.min(inner_log2));
        let twiddles = TwiddleTable::new(inner_log2, key.layout);
        let ext = match key.kind {
            TransformKind::C2C => None,
            TransformKind::R2C | TransformKind::C2R => Some(Box::new(KindExt::Real {
                untangle: workload::untangle_table(key.n_log2),
                inverse: key.kind == TransformKind::C2R,
            })),
            TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            } => {
                let block_log2 = tuning
                    .and_then(|t| t.transpose_block_log2)
                    .unwrap_or(DEFAULT_TRANSPOSE_BLOCK_LOG2)
                    .min(rows_log2)
                    .min(cols_log2);
                // The column wave runs on the seed schedule of its own size;
                // the outer tuning's pool order is shaped for the row plan.
                let col_key = PlanKey {
                    n_log2: rows_log2,
                    radix_log2: key.radix_log2.min(rows_log2),
                    version: key.version,
                    layout: key.layout,
                    kind: TransformKind::C2C,
                };
                Some(Box::new(KindExt::TwoD {
                    rows_log2,
                    cols_log2,
                    block_log2,
                    col_plan: Box::new(Plan::build(col_key)),
                }))
            }
        };
        // Lower the workload layer's schedule spec — the same spec the
        // simulator runs and `fgcheck` verifies — onto tiles.
        let tiles = TileProgram::lower(&fft, &ScheduleSpec::of_tuned(fft, key.version, tuning));
        let tables = (0..fft.stages())
            .map(|stage| StageTable::build(&fft, &twiddles, stage))
            .collect();
        let mut plan = Self {
            key,
            tuning: tuning.cloned(),
            fft,
            twiddles,
            bitrev_swaps: OnceLock::new(),
            tiles,
            tables,
            ext,
            vector_ready: false,
        };
        // Tables are immutable from here on, so the vector kernel's
        // precondition is checked once per plan rather than per prepare.
        plan.vector_ready = crate::backend::vector_ready(&plan);
        plan
    }

    /// Run codelet `id` (`0..fft_plan().total_codelets()`, stage-major) of
    /// the inner complex FFT over `view` with the scalar reference kernel —
    /// the unit of work every schedule fires. Harnesses that need their
    /// own body around it (span tracing, private-counter ablations, kernel
    /// micro-benchmarks) drive this over their own schedule.
    /// `view` must hold the bit-reversed input of the inner transform
    /// ([`FftPlan::n`] elements; apply [`bit_reverse_tiled`] first).
    ///
    /// # Safety
    /// The caller upholds the dataflow discipline documented in
    /// [`crate::exec::shared`] for codelet `id` over `view`: all of its
    /// parents have completed, with proper synchronization edges, and no
    /// concurrent codelet shares any of its elements; `view` spans at least
    /// [`FftPlan::n`] elements.
    #[inline]
    pub unsafe fn run_codelet(&self, view: &SharedData<'_>, id: usize) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.run_tile_with(&ScalarKernel, view, id..id + 1) }
    }

    /// Run the consecutive codelets `ids` (all of one stage) over `view`
    /// through `kernel`, in one call: the kernel receives the stage's
    /// tables and address generator, so a backend can swap the butterfly
    /// arithmetic and the order it visits the codelets' elements in
    /// without touching scheduling or table layout.
    ///
    /// # Safety
    /// The caller upholds the dataflow discipline documented in
    /// [`crate::exec::shared`] for every codelet in `ids` over `view`,
    /// which spans at least [`FftPlan::n`] elements.
    #[inline]
    pub(crate) unsafe fn run_tile_with<K: CodeletKernel + ?Sized>(
        &self,
        kernel: &K,
        view: &SharedData<'_>,
        ids: Range<CodeletId>,
    ) {
        debug_assert!(view.len() >= self.fft.n());
        debug_assert!(!ids.is_empty() && ids.end <= self.fft.total_codelets());
        let stage = self.fft.stage_of(ids.start);
        debug_assert_eq!(stage, self.fft.stage_of(ids.end - 1), "a tile is one stage");
        let first = self.fft.idx_of(ids.start);
        // SAFETY: forwarded from the caller's contract; the tables are the
        // plan's own for `stage`, whose generator partitions the data
        // (FG404) and whose pairs, slots and classes are in bounds (FG402).
        unsafe {
            kernel.run_tile(&self.tables[stage].view(), first..first + ids.len(), view);
        }
    }

    /// Every tile of `stage` over `data`, in id order on the calling
    /// thread, through `kernel` ([`crate::PreparedPlan::run_stage`]).
    pub(crate) fn run_stage_with<K: CodeletKernel + ?Sized>(
        &self,
        kernel: &K,
        data: &mut [Complex64],
        stage: usize,
    ) {
        assert_eq!(
            data.len(),
            self.fft.n(),
            "buffer length must match the inner plan"
        );
        assert!(stage < self.fft.stages(), "stage out of range");
        let cps = self.fft.codelets_per_stage();
        let view = SharedData::new(data);
        for first in (stage * cps..(stage + 1) * cps).step_by(self.tiles.tile_len()) {
            // SAFETY: one thread owns `data`; the tiles of one stage are
            // independent, so any order among them is the dataflow order.
            unsafe { self.run_tile_with(kernel, &view, first..first + self.tiles.tile_len()) };
        }
    }

    /// The identity this plan was built for.
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// The schedule overrides this plan was built with (`None` = the
    /// version's own schedule).
    pub fn tuning(&self) -> Option<&ScheduleTuning> {
        self.tuning.as_ref()
    }

    /// Logical transform size `N` (the real length for real kinds,
    /// `rows · cols` for 2D). The execution buffer holds
    /// [`Plan::buffer_len`] complex slots.
    pub fn n(&self) -> usize {
        self.key.n()
    }

    /// The transform kind this plan lowers.
    pub fn kind(&self) -> TransformKind {
        self.key.kind
    }

    /// Complex slots [`Plan::execute`] expects: `N` for C2C/2D, `N/2`
    /// packed slots for the real kinds.
    pub fn buffer_len(&self) -> usize {
        self.key.buffer_len()
    }

    /// The column-wave plan of a 2D transform (`None` for 1D kinds). The
    /// plan's own tables drive the row wave.
    pub fn col_plan(&self) -> Option<&Plan> {
        match self.ext.as_deref() {
            Some(KindExt::TwoD { col_plan, .. }) => Some(col_plan),
            _ => None,
        }
    }

    /// The precomputed untangle factors of a real-kind plan
    /// (`e^{-2πik/N}` for `k = 0..=N/4`; `None` for complex kinds).
    pub fn untangle(&self) -> Option<&[Complex64]> {
        match self.ext.as_deref() {
            Some(KindExt::Real { untangle, .. }) => Some(untangle),
            _ => None,
        }
    }

    /// Effective transpose tile edge exponent of a 2D plan (`None` for 1D
    /// kinds).
    pub fn transpose_block_log2(&self) -> Option<u32> {
        match self.ext.as_deref() {
            Some(KindExt::TwoD { block_log2, .. }) => Some(*block_log2),
            _ => None,
        }
    }

    /// The stage/codelet index algebra of the primary inner complex FFT
    /// (the row transform for 2D, the packed half-size FFT for real kinds).
    pub fn fft_plan(&self) -> &FftPlan {
        &self.fft
    }

    /// The precomputed twiddle table.
    pub fn twiddles(&self) -> &TwiddleTable {
        &self.twiddles
    }

    /// The execution tables of `stage` (`0..fft_plan().stages()`), exactly
    /// as the kernels read them.
    pub fn stage_tables(&self, stage: usize) -> StageTables<'_> {
        self.tables[stage].view()
    }

    /// The tables of `stage` with its element indices materialized as a
    /// gather table, for harnesses written against stored gathers. The
    /// gather is built from the address generator on the first call for
    /// each stage and kept; execution never reads it and
    /// [`Plan::resident_bytes`] does not count it.
    pub fn stage_table(&self, stage: usize) -> StageTableView<'_> {
        let table = &self.tables[stage];
        let gather = table.gather.get_or_init(|| {
            let (radix, a) = (self.fft.radix(), table.addressing);
            (0..self.fft.n())
                .map(|i| a.codelet_element(i / radix, i % radix) as u32)
                .collect()
        });
        StageTableView {
            gather,
            pairs: &table.pairs,
            slots: &table.slots,
            classes: table.classes,
            twiddles: &table.twiddles,
        }
    }

    /// The bit-reversal transposition list of the inner transform, for
    /// harnesses that time or replay the stored-list form. Built on the
    /// first call and kept; execution computes the permutation instead
    /// ([`bit_reverse_tiled`]), so this list is never on the hot path and
    /// [`Plan::resident_bytes`] does not count it.
    pub fn bitrev_swaps(&self) -> &[(u32, u32)] {
        self.bitrev_swaps
            .get_or_init(|| bit_reverse_swaps(self.fft.n()))
    }

    /// Whether the vector kernel may run this plan: every stage table, and
    /// a 2-D plan's column tables, carries the canonical butterfly and
    /// slot patterns and the codelets hold at least four points. Checked
    /// once when the plan is built.
    pub(crate) fn vector_ready(&self) -> bool {
        self.vector_ready
    }

    /// The host lowering this plan fires: its certified schedule over
    /// tiles of consecutive codelets ([`crate::tiles`]).
    pub fn tiles(&self) -> &TileProgram {
        &self.tiles
    }

    /// Approximate bytes this plan keeps resident (twiddles, tile program,
    /// stage tables, kind extensions) — what a cache eviction would
    /// reclaim. Element addresses and the bit reversal are computed, so
    /// they add nothing; a gather view or swap list a harness asked for
    /// through [`Plan::stage_table`] or [`Plan::bitrev_swaps`] is not
    /// counted.
    pub fn resident_bytes(&self) -> u64 {
        let schedule = self.tiles.resident_bytes();
        let tables: u64 = self.tables.iter().map(StageTable::bytes).sum();
        let ext = match self.ext.as_deref() {
            None => 0,
            Some(KindExt::Real { untangle, .. }) => {
                (untangle.len() * std::mem::size_of::<Complex64>()) as u64
            }
            Some(KindExt::TwoD { col_plan, .. }) => col_plan.resident_bytes(),
        };
        self.twiddles.bytes() + schedule + tables + ext
    }

    /// In-place forward transform of one buffer (`data.len()` must equal
    /// [`Plan::buffer_len`]) on `runtime`: a batch of one, through the
    /// scalar kernel. This is the **reference** path: tests and benchmarks
    /// compare every other kernel against its bits. Library transforms
    /// ([`crate::Fft`]) and serving run the host's default kernel instead
    /// ([`crate::BackendSel::default`]), which produces the same bits.
    pub fn execute(&self, data: &mut [Complex64], runtime: &Runtime) -> ExecStats {
        self.execute_with(&ScalarKernel, data, runtime)
    }

    /// As [`Plan::execute`], but with the butterfly arithmetic supplied by
    /// `kernel` — the entry point [`crate::backend`] routes through. With
    /// [`ScalarKernel`] this monomorphizes to exactly the historical path.
    pub(crate) fn execute_with<K: CodeletKernel + ?Sized>(
        &self,
        kernel: &K,
        data: &mut [Complex64],
        runtime: &Runtime,
    ) -> ExecStats {
        self.execute_batch_with(kernel, &mut [data], runtime)
    }

    /// In-place forward transform of a whole **batch** of same-plan buffers
    /// through one runtime dispatch per schedule phase: worker-scope setup
    /// and dependence-counter allocation are paid once for the batch, not
    /// once per request. Every buffer receives exactly the result
    /// [`Plan::execute`] would produce. Scalar kernel, like
    /// [`Plan::execute`].
    pub fn execute_batch(&self, buffers: &mut [&mut [Complex64]], runtime: &Runtime) -> ExecStats {
        self.execute_batch_with(&ScalarKernel, buffers, runtime)
    }

    /// As [`Plan::execute_batch`], but with the butterfly arithmetic
    /// supplied by `kernel` (see [`Plan::execute_with`]). The one place
    /// the transform kind wraps the inner complex wave.
    pub(crate) fn execute_batch_with<K: CodeletKernel + ?Sized>(
        &self,
        kernel: &K,
        buffers: &mut [&mut [Complex64]],
        runtime: &Runtime,
    ) -> ExecStats {
        for buf in buffers.iter() {
            assert_eq!(
                buf.len(),
                self.buffer_len(),
                "buffer length must match the plan"
            );
        }
        let start = Instant::now();
        let mut stats = match self.ext.as_deref() {
            None => self.execute_c2c_batch_with(kernel, buffers, runtime),
            Some(KindExt::Real { untangle, inverse }) => {
                if *inverse {
                    for buf in buffers.iter_mut() {
                        tangle_span(buf, untangle, 0, untangle.len());
                    }
                }
                let stats = self.execute_c2c_batch_with(kernel, buffers, runtime);
                for buf in buffers.iter_mut() {
                    if *inverse {
                        finalize_span(buf, 0, buf.len());
                    } else {
                        untangle_span(buf, untangle, 0, untangle.len());
                    }
                }
                stats
            }
            Some(KindExt::TwoD {
                rows_log2,
                cols_log2,
                block_log2,
                col_plan,
            }) => {
                // Per member: row wave → blocked transpose → column wave →
                // transpose back. Both waves run as batches over the
                // plane's rows; the transposes move `block × block` tiles,
                // the granularity the workload layer footprints.
                let (rows, cols) = (1usize << rows_log2, 1usize << cols_log2);
                let block = 1usize << block_log2;
                let mut stats = ExecStats::default();
                let mut scratch = vec![Complex64::ZERO; rows * cols];
                for buf in buffers.iter_mut() {
                    let mut row_views: Vec<&mut [Complex64]> = buf.chunks_exact_mut(cols).collect();
                    stats.merge(self.execute_c2c_batch_with(kernel, &mut row_views, runtime));
                    transpose_blocked(buf, &mut scratch, rows, cols, block);
                    let mut col_views: Vec<&mut [Complex64]> =
                        scratch.chunks_exact_mut(rows).collect();
                    stats.merge(col_plan.execute_c2c_batch_with(kernel, &mut col_views, runtime));
                    transpose_blocked(&scratch, buf, cols, rows, block);
                    stats.barriers += 2;
                }
                stats
            }
        };
        stats.elapsed = start.elapsed();
        stats
    }

    /// The inner complex wave of a batch: bit reversal of every buffer,
    /// then one dispatch of the schedule over all of them.
    fn execute_c2c_batch_with<K: CodeletKernel + ?Sized>(
        &self,
        kernel: &K,
        buffers: &mut [&mut [Complex64]],
        runtime: &Runtime,
    ) -> ExecStats {
        for buf in buffers.iter_mut() {
            debug_assert_eq!(buf.len(), self.fft.n());
            bit_reverse_tiled(buf, runtime);
        }
        let views: Vec<SharedData<'_>> = buffers.iter_mut().map(|b| SharedData::new(b)).collect();
        // SAFETY: copies address disjoint buffers; within a copy the
        // schedule upholds the dataflow discipline of `exec::shared`.
        self.dispatch(runtime, views.len(), |copy, ids| unsafe {
            self.run_tile_with(kernel, &views[copy], ids)
        })
    }

    /// The one dispatch of this plan's schedule: fire every tile of the
    /// [`TileProgram`] for `copies` same-plan buffers through `runtime`,
    /// calling `body(copy, ids)` once per tile with the tile's member
    /// codelets (consecutive ids of one stage, so independent) of buffer
    /// `copy`. One copy runs the tile program itself; a batch views it as
    /// one [`BatchProgram`], so setup is paid once for the whole batch. The
    /// returned counts are codelets.
    fn dispatch(
        &self,
        runtime: &Runtime,
        copies: usize,
        body: impl Fn(usize, Range<CodeletId>) + Sync,
    ) -> ExecStats {
        let mut stats = ExecStats::default();
        if copies == 0 {
            return stats;
        }
        let tiles = self.tiles.num_tiles();
        let body = |task: usize| {
            let (copy, tile) = if copies == 1 {
                (0, task)
            } else {
                (task / tiles, task % tiles)
            };
            body(copy, self.tiles.members(tile));
        };
        let tile_len = self.tiles.tile_len() as u64;
        for slice in self.tiles.slices() {
            let mut rs = match slice {
                TileSlice::Phased(phases) if copies == 1 => runtime.run_phased(phases, body),
                TileSlice::Phased(phases) => {
                    // Phase s of every copy forms one barrier phase.
                    let batched: Vec<Vec<CodeletId>> = phases
                        .iter()
                        .map(|p| {
                            (0..copies)
                                .flat_map(|k| p.iter().map(move |&t| k * tiles + t))
                                .collect()
                        })
                        .collect();
                    runtime.run_phased(&batched, body)
                }
                TileSlice::Dataflow {
                    program,
                    seeds,
                    expected,
                } => run_slice(runtime, program, seeds, *expected, copies, &body),
            };
            // The runtime counted tiles; each is exactly `T` codelets.
            rs.total_fired *= tile_len;
            for fired in &mut rs.fired_per_worker {
                *fired *= tile_len;
            }
            stats.barriers += rs.barriers;
            stats.phases.push(rs);
        }
        // The join of each slice's worker scope is a barrier.
        stats.barriers += self.tiles.slices().len() as u64 - 1;
        stats.codelets = stats.phases.iter().map(|rs| rs.total_fired).sum();
        debug_assert_eq!(stats.codelets, (self.fft.total_codelets() * copies) as u64);
        stats
    }

    /// As [`Plan::execute`], but with a *recording kernel*: alongside the
    /// transform, capture per codelet exactly what the hot path touched —
    /// the element indices it read and wrote (from the stage's address
    /// generator) and the twiddle values it consumed (from the class runs
    /// the real execution reads). The drift test compares these observations against
    /// the workload layer's static footprints codelet-for-codelet; any
    /// divergence between what we *say* a codelet touches and what execution
    /// *actually* touches fails loudly.
    pub fn execute_recorded(
        &self,
        data: &mut [Complex64],
        runtime: &Runtime,
    ) -> (ExecStats, Vec<TouchRecord>) {
        assert_eq!(
            data.len(),
            self.buffer_len(),
            "buffer length must match the plan"
        );
        let start = Instant::now();
        let mut records = Vec::new();
        let mut stats = match self.ext.as_deref() {
            None => self.record_c2c_into(data, runtime, 0, &mut records),
            Some(KindExt::Real { untangle, inverse }) => {
                // The (un)tangle runs as radix-sized pair tasks over bins
                // `0..=N/4`, the c2r epilogue as radix-sized spans.
                let radix = self.fft.radix();
                let pair_tasks = |data: &mut [Complex64], records: &mut Vec<TouchRecord>| {
                    for lo in (0..untangle.len()).step_by(radix) {
                        let hi = (lo + radix).min(untangle.len());
                        records.push(record_pair_task(data, untangle, lo, hi, *inverse));
                    }
                };
                if *inverse {
                    pair_tasks(data, &mut records);
                }
                let stats = self.record_c2c_into(data, runtime, 0, &mut records);
                if *inverse {
                    for lo in (0..data.len()).step_by(radix) {
                        let hi = (lo + radix).min(data.len());
                        finalize_span(data, lo, hi);
                        records.push(TouchRecord {
                            reads: (lo as u32..hi as u32).collect(),
                            writes: (lo as u32..hi as u32).collect(),
                            twiddles: Vec::new(),
                        });
                    }
                } else {
                    pair_tasks(data, &mut records);
                }
                stats
            }
            Some(KindExt::TwoD {
                rows_log2,
                cols_log2,
                block_log2,
                col_plan,
            }) => {
                let (rows, cols) = (1usize << rows_log2, 1usize << cols_log2);
                let (b, len) = (1usize << block_log2, data.len());
                let mut stats = ExecStats::default();
                for (r, row) in data.chunks_exact_mut(cols).enumerate() {
                    let shift = (r * cols) as u32;
                    stats.merge(self.record_c2c_into(row, runtime, shift, &mut records));
                }
                let mut scratch = vec![Complex64::ZERO; len];
                record_transpose(
                    data,
                    &mut scratch,
                    rows,
                    cols,
                    b,
                    0,
                    len as u32,
                    &mut records,
                );
                for (c, col) in scratch.chunks_exact_mut(rows).enumerate() {
                    let shift = (len + c * rows) as u32;
                    stats.merge(col_plan.record_c2c_into(col, runtime, shift, &mut records));
                }
                record_transpose(&scratch, data, cols, rows, b, len as u32, 0, &mut records);
                stats
            }
        };
        stats.elapsed = start.elapsed();
        (stats, records)
    }

    /// Run the inner complex wave while recording, per codelet, exactly
    /// what the scalar kernel touched — the generator's element addresses
    /// and the twiddles read through the class runs; records land in
    /// `out` in codelet-id order with every element index shifted by
    /// `shift` (the composite plane/copy offset).
    fn record_c2c_into(
        &self,
        data: &mut [Complex64],
        runtime: &Runtime,
        shift: u32,
        out: &mut Vec<TouchRecord>,
    ) -> ExecStats {
        bit_reverse_tiled(data, runtime);
        let view = SharedData::new(data);
        let radix = 1usize << self.fft.radix_log2();
        let slots: Vec<OnceLock<TouchRecord>> = (0..self.fft.total_codelets())
            .map(|_| OnceLock::new())
            .collect();
        let stats = self.dispatch(runtime, 1, |_, ids| {
            for id in ids {
                let stage = self.fft.stage_of(id);
                let idx = self.fft.idx_of(id);
                let table = &self.tables[stage];
                let gather: Vec<u32> = (0..radix)
                    .map(|slot| table.addressing.codelet_element(idx, slot) as u32 + shift)
                    .collect();
                let run = table.view().run(idx).expect("class in bounds");
                let record = TouchRecord {
                    reads: gather.clone(),
                    writes: gather,
                    twiddles: table.slots.iter().map(|&s| run[s as usize]).collect(),
                };
                let set = slots[id].set(record).is_ok();
                debug_assert!(set, "codelet {id} fired twice");
                // SAFETY: the schedule upholds the dataflow discipline
                // documented in `exec::shared`, exactly as in `execute`.
                unsafe { self.run_codelet(&view, id) };
            }
        });
        out.extend(slots.into_iter().enumerate().map(|(id, slot)| {
            slot.into_inner()
                .unwrap_or_else(|| panic!("codelet {id} never fired"))
        }));
        stats
    }
}

/// Fire one dataflow slice of a plan's tile program — `expected` tiles
/// grown from `seeds` — over `copies` buffers. One copy runs `program`
/// itself, with no per-edge copy arithmetic and no seed copy; a batch runs
/// it as a [`BatchProgram`] with every copy's seeds in per-copy order.
fn run_slice(
    runtime: &Runtime,
    program: &CsrProgram,
    seeds: &[CodeletId],
    expected: usize,
    copies: usize,
    body: &(impl Fn(CodeletId) + Sync),
) -> RunStats {
    if copies == 1 {
        return runtime.run_partial(program, PoolDiscipline::Lifo, seeds, expected, body);
    }
    let batch = BatchProgram::new(program, copies);
    runtime.run_partial(
        &batch,
        PoolDiscipline::Lifo,
        &batch.batched_seeds(seeds),
        expected * copies,
        body,
    )
}

/// Untangle bins `lo..hi` of a packed half-complex forward result, in
/// place: `Z[k] = E[k] + i·O[k]` → `X[k] = E[k] + W_N^k·O[k]` for the pair
/// `(k, N/2−k)`, with `X[0]`/`X[N/2]` packed into slot 0. `table[k]` holds
/// `W_N^k = e^{-2πik/N}`; bins are the pair indices `0..=N/4`.
fn untangle_span(data: &mut [Complex64], table: &[Complex64], lo: usize, hi: usize) {
    let half = data.len();
    for k in lo..hi {
        if k == 0 {
            // DC and Nyquist are real; pack X[0] into .re and X[N/2] into .im.
            let z0 = data[0];
            data[0] = Complex64::new(z0.re + z0.im, z0.re - z0.im);
            continue;
        }
        let m = half - k;
        let zk = data[k];
        let zm = data[m];
        let e = (zk + zm.conj()).scale(0.5);
        let ot = (zk - zm.conj()).scale(0.5);
        // ot holds i·O[k]; fold the −i into the twiddle product.
        let o = Complex64::new(ot.im, -ot.re);
        let t = table[k] * o;
        data[k] = e + t;
        // X[N/2−k] = conj(E[k] − W_N^k·O[k]); for the self-paired bin
        // k = N/4 this coincides with the line above.
        data[m] = (e - t).conj();
    }
}

/// Inverse of [`untangle_span`], pre-conjugated for the conj-forward-conj
/// inverse: rebuilds `conj(Z[k])` from the packed half spectrum so a
/// *forward* inner FFT followed by [`finalize_span`] yields the real
/// signal (even samples in `.re`, odd in `.im`).
fn tangle_span(data: &mut [Complex64], table: &[Complex64], lo: usize, hi: usize) {
    let half = data.len();
    for k in lo..hi {
        if k == 0 {
            let v0 = data[0];
            // Z[0] = ((X[0]+X[N/2])/2, (X[0]−X[N/2])/2), conjugated.
            data[0] = Complex64::new((v0.re + v0.im) * 0.5, -(v0.re - v0.im) * 0.5);
            continue;
        }
        let m = half - k;
        let xk = data[k];
        let xm = data[m];
        let e = (xk + xm.conj()).scale(0.5);
        let ot = (xk - xm.conj()).scale(0.5);
        let w = table[k];
        // Z[k] = E + i·(conj(W)·ot); Z[N/2−k] = conj(E) + i·(W·conj(ot)).
        let ok = w.conj() * ot;
        let om = w * ot.conj();
        let zk = e + Complex64::new(-ok.im, ok.re);
        let zm = e.conj() + Complex64::new(-om.im, om.re);
        data[k] = zk.conj();
        // Self-paired bin k = N/4: zm == zk, so the second write is benign.
        data[m] = zm.conj();
    }
}

/// The c2r epilogue over elements `lo..hi`: conjugate and normalize by
/// `1/(N/2)` (the inner inverse's scale; the real-signal packing absorbs
/// the rest).
fn finalize_span(data: &mut [Complex64], lo: usize, hi: usize) {
    let scale = 1.0 / data.len() as f64;
    for v in &mut data[lo..hi] {
        *v = v.conj().scale(scale);
    }
}

/// Perform the untangle (or tangle) of one composite pair task — bins
/// `lo..hi` — while recording exactly the element and twiddle traffic the
/// workload layer footprints for it.
fn record_pair_task(
    data: &mut [Complex64],
    table: &[Complex64],
    lo: usize,
    hi: usize,
    inverse: bool,
) -> TouchRecord {
    let half = data.len();
    let mut touched = Vec::new();
    for k in lo..hi {
        touched.push(k as u32);
        let m = (half - k) % half;
        if m != k {
            touched.push(m as u32);
        }
    }
    let twiddles: Vec<Complex64> = (lo.max(1)..hi).map(|k| table[k]).collect();
    if inverse {
        tangle_span(data, table, lo, hi);
    } else {
        untangle_span(data, table, lo, hi);
    }
    TouchRecord {
        reads: touched.clone(),
        writes: touched,
        twiddles,
    }
}

/// Out-of-place transpose of a row-major `rows × cols` plane in
/// `block × block` tiles — the exact tile walk the workload layer
/// footprints, so the bank linter's model is the executed access pattern.
fn transpose_blocked(
    src: &[Complex64],
    dst: &mut [Complex64],
    rows: usize,
    cols: usize,
    block: usize,
) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for rb in (0..rows).step_by(block) {
        for cb in (0..cols).step_by(block) {
            for r in rb..rb + block {
                for c in cb..cb + block {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// As [`transpose_blocked`], recording one [`TouchRecord`] per tile in
/// tile-id order (`bi · cols/b + bj`): reads in source row-segment order,
/// writes in destination row-segment order, with the planes' element
/// offsets applied.
#[allow(clippy::too_many_arguments)]
fn record_transpose(
    src: &[Complex64],
    dst: &mut [Complex64],
    rows: usize,
    cols: usize,
    block: usize,
    src_shift: u32,
    dst_shift: u32,
    out: &mut Vec<TouchRecord>,
) {
    for rb in (0..rows).step_by(block) {
        for cb in (0..cols).step_by(block) {
            let mut reads = Vec::with_capacity(block * block);
            let mut writes = Vec::with_capacity(block * block);
            for r in rb..rb + block {
                for c in cb..cb + block {
                    reads.push(src_shift + (r * cols + c) as u32);
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            for c in cb..cb + block {
                for r in rb..rb + block {
                    writes.push(dst_shift + (c * rows + r) as u32);
                }
            }
            out.push(TouchRecord {
                reads,
                writes,
                twiddles: Vec::new(),
            });
        }
    }
}

/// One cache slot: a lazily-built plan. `OnceLock` gives single-flight for
/// free — the first `get_or_init` computes while concurrent callers block
/// on the slot and then share the `Arc`. `last_used` is a logical timestamp
/// (planner-global tick, not wall time) stamped on every lookup; eviction
/// drops the smallest.
#[derive(Debug, Default)]
struct Slot {
    plan: OnceLock<Arc<Plan>>,
    last_used: AtomicU64,
}

/// Number of independent cache shards. Requests for different keys usually
/// hash to different shards, so concurrent lookups don't serialize on one
/// lock; 16 is plenty for the handful of distinct sizes a service sees.
const SHARD_COUNT: usize = 16;

/// Default total plan capacity. Each `(n, version, layout, radix)` key is
/// one plan; 256 covers every size a realistic service mixes while bounding
/// worst-case residency (plans for huge N hold multi-megabyte tables).
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// Snapshot of a planner's cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Lookups answered by an already-built plan.
    pub hits: u64,
    /// Lookups that found no ready plan (includes single-flight waiters).
    pub misses: u64,
    /// Plans actually constructed (≤ misses; exactly one per distinct key).
    pub built: u64,
    /// Distinct plans currently cached.
    pub cached_plans: u64,
    /// Approximate bytes held by cached plans.
    pub resident_bytes: u64,
    /// Built plans dropped to keep the cache within its capacity.
    pub evictions: u64,
    /// Wisdom entries the planner refused to apply: ill-formed tunings and
    /// certificate verification failures (stale, tampered, foreign). Each
    /// rejection falls back to the seed schedule — never a panic.
    pub wisdom_rejections: u64,
}

impl PlannerStats {
    /// Fraction of lookups served warm, in `0.0..=1.0` (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, single-flight plan cache ("wisdom").
///
/// ```
/// use fgfft::planner::Planner;
/// use fgfft::{TwiddleLayout, Version};
///
/// let planner = Planner::new();
/// let a = planner.plan(1 << 10, Version::FineGuided, TwiddleLayout::Linear);
/// let b = planner.plan(1 << 10, Version::FineGuided, TwiddleLayout::Linear);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
/// assert_eq!(planner.stats().built, 1);
/// ```
#[derive(Debug)]
pub struct Planner {
    shards: Vec<Mutex<HashMap<PlanKey, Arc<Slot>>>>,
    /// Per-shard slot cap (total capacity spread over the shards).
    shard_capacity: usize,
    /// Logical clock for LRU stamps; bumped once per lookup.
    tick: AtomicU64,
    /// Tuned parameters consulted when building plans; `None` runs every
    /// version on its seed schedule.
    wisdom: Mutex<Option<Arc<Wisdom>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    built: AtomicU64,
    evictions: AtomicU64,
    wisdom_rejections: AtomicU64,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// New empty cache with the default capacity
    /// ([`DEFAULT_PLAN_CAPACITY`] plans).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CAPACITY)
    }

    /// New empty cache holding at most `capacity` built plans (≥ 1),
    /// evicting least-recently-used plans beyond that. The bound is
    /// approximate: capacity is split across shards, and a shard never
    /// evicts a plan that is still being built.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "planner capacity must be at least 1");
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            shard_capacity: capacity.div_ceil(SHARD_COUNT),
            tick: AtomicU64::new(0),
            wisdom: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            built: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            wisdom_rejections: AtomicU64::new(0),
        }
    }

    /// The process-wide planner shared by default [`crate::Fft`] engines, so
    /// independently constructed engines still share warm plans.
    pub fn shared() -> Arc<Planner> {
        static GLOBAL: OnceLock<Arc<Planner>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Planner::new())))
    }

    fn shard_of(key: &PlanKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    /// The plan for an `n`-point transform (power of two ≥ 2) under
    /// `version` and `layout`, with the default 64-point codelets — built on
    /// first request, served from cache afterwards.
    pub fn plan(&self, n: usize, version: Version, layout: TwiddleLayout) -> Arc<Plan> {
        self.plan_key(PlanKey::new(n, version, layout))
    }

    /// The plan for a non-C2C transform kind of logical size `n` under
    /// `version` and `layout` with the default codelets (see
    /// [`PlanKey::with_kind`]).
    pub fn plan_kind(
        &self,
        kind: TransformKind,
        n: usize,
        version: Version,
        layout: TwiddleLayout,
    ) -> Arc<Plan> {
        self.plan_key(PlanKey::with_kind(kind, n, version, layout, 6))
    }

    /// Whether the plan for `key` is already built and cached — a warm
    /// lookup. Purely an observation: it never builds, never counts as a
    /// hit or miss, and never touches the LRU stamps. The serving layer's
    /// cold-plan gate polls this to decide how many requests may ride a
    /// cold dispatch.
    pub fn is_warm_key(&self, key: &PlanKey) -> bool {
        self.shards[Self::shard_of(key)]
            .lock()
            .get(key)
            .is_some_and(|slot| slot.plan.get().is_some())
    }

    /// The plan for an explicit [`PlanKey`]. Single-flight: when several
    /// threads miss on the same key simultaneously, exactly one builds while
    /// the rest block on the slot and share the result. When the planner
    /// holds [`Wisdom`] with an entry for `key`, the plan is built with that
    /// entry's schedule tuning (same arithmetic, tuned execution order).
    pub fn plan_key(&self, key: PlanKey) -> Arc<Plan> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut map = self.shards[Self::shard_of(&key)].lock();
            match map.get(&key) {
                Some(slot) => {
                    if slot.plan.get().is_some() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Entry exists but the plan is still being built by
                        // another thread: this lookup did not get warm data.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    slot.last_used.store(now, Ordering::Relaxed);
                    Arc::clone(slot)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if map.len() >= self.shard_capacity {
                        self.evict_lru(&mut map);
                    }
                    let slot = Arc::new(Slot::default());
                    slot.last_used.store(now, Ordering::Relaxed);
                    map.insert(key, Arc::clone(&slot));
                    slot
                }
            }
        };
        // Out of the shard lock: a slow build must not block lookups of
        // other keys in the same shard... it holds only the slot.
        Arc::clone(slot.plan.get_or_init(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            let entry = self
                .wisdom
                .lock()
                .as_ref()
                .and_then(|w| w.lookup(&key))
                .cloned();
            Arc::new(self.build_checked(key, entry))
        }))
    }

    /// Build the plan for `key`, applying the wisdom entry's tuning only
    /// after it survives validation and, when the entry carries one,
    /// certificate verification (entries loaded from a file always do;
    /// programmatically installed wisdom may omit it — that path is code,
    /// not data). Every rejection is counted and degrades to the seed
    /// schedule — wisdom is data, and data must never panic the planner or
    /// steer the `unsafe` hot path unchecked.
    fn build_checked(&self, key: PlanKey, entry: Option<WisdomEntry>) -> Plan {
        let Some(entry) = entry else {
            return Plan::build(key);
        };
        // Validate against the primary *inner* plan — the pool the tuning's
        // permutation reorders (the packed half for real kinds, the row
        // transform for 2D).
        let inner_log2 = key.kind.inner_n_log2(key.n_log2);
        let fft = FftPlan::new(inner_log2, key.radix_log2.min(inner_log2));
        if entry.tuning.validate(&fft).is_err() {
            // An ill-formed permutation would panic inside
            // `ScheduleSpec::of_tuned`; refuse it here instead.
            self.wisdom_rejections.fetch_add(1, Ordering::Relaxed);
            return Plan::build(key);
        }
        let plan = Plan::build_tuned(key, Some(&entry.tuning));
        if let Some(cert) = &entry.cert {
            if cert.verify_plan(&plan).is_err() {
                self.wisdom_rejections.fetch_add(1, Ordering::Relaxed);
                return Plan::build(key);
            }
        }
        plan
    }

    /// Drop the least-recently-used *built* slot from a full shard. Slots
    /// still being built are never evicted (their builders and waiters hold
    /// the `Arc`; dropping the map entry would let a racing lookup build the
    /// same plan twice). If every slot is in-flight the shard briefly
    /// overshoots its cap instead.
    fn evict_lru(&self, map: &mut HashMap<PlanKey, Arc<Slot>>) {
        let victim = map
            .iter()
            .filter(|(_, slot)| slot.plan.get().is_some())
            .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
            .map(|(key, _)| *key);
        if let Some(key) = victim {
            map.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Install (or clear) the wisdom consulted when building plans, and
    /// drop every cached plan so subsequent lookups rebuild with the new
    /// tunings. In-flight `Arc<Plan>`s stay valid.
    pub fn set_wisdom(&self, wisdom: Option<Arc<Wisdom>>) {
        *self.wisdom.lock() = wisdom;
        self.clear();
    }

    /// The currently installed wisdom, if any.
    pub fn wisdom(&self) -> Option<Arc<Wisdom>> {
        self.wisdom.lock().clone()
    }

    /// Load a wisdom file and install it when usable. Tolerates every file
    /// failure mode (see [`Wisdom::load`]): on anything but
    /// [`WisdomStatus::Loaded`] the planner is left untouched and the
    /// status says why. Every entry must carry a certificate that passes
    /// [`crate::cert::Certificate::verify_static`].
    pub fn load_wisdom(&self, path: &std::path::Path) -> WisdomStatus {
        let (wisdom, status) = Wisdom::load(path);
        if status.is_loaded() {
            self.set_wisdom(Some(Arc::new(wisdom)));
        }
        status
    }

    /// Number of distinct keys cached (built or building).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (in-flight `Arc`s stay valid).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Cache-behavior snapshot.
    pub fn stats(&self) -> PlannerStats {
        let mut cached = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            for slot in shard.lock().values() {
                if let Some(plan) = slot.plan.get() {
                    cached += 1;
                    bytes += plan.resident_bytes();
                }
            }
        }
        PlannerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            cached_plans: cached,
            resident_bytes: bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            wisdom_rejections: self.wisdom_rejections.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::rms_error;
    use crate::exec::SeedOrder;
    use crate::reference::recursive_fft;
    use codelet::graph::CodeletProgram;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.29).sin(), (i as f64 * 0.17).cos()))
            .collect()
    }

    fn all_versions() -> Vec<Version> {
        vec![
            Version::Coarse,
            Version::CoarseHash,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Reversed),
            Version::Fine(SeedOrder::Random(42)),
            Version::FineHash(SeedOrder::Natural),
            Version::FineHash(SeedOrder::Reversed),
            Version::FineGuided,
        ]
    }

    /// One transform through a freshly built plan for `version`.
    fn run(data: &mut [Complex64], version: Version, radix_log2: u32, workers: usize) -> ExecStats {
        let key = PlanKey::with_radix(data.len(), version, version.layout(), radix_log2);
        Plan::build(key).execute(data, &Runtime::with_workers(workers))
    }

    #[test]
    fn plan_execution_is_bit_identical_to_uncached_path() {
        // The uncached path builds a plan per call; a plan cached by a
        // planner and reused across calls must compute the same bits.
        let n = 1 << 13; // 3 stages at radix 64: guided split exercised
        let input = signal(n);
        let planner = Planner::new();
        let rt = Runtime::with_workers(4);
        for version in all_versions() {
            let key = PlanKey::new(n, version, version.layout());
            let mut uncached = input.clone();
            Plan::build(key).execute(&mut uncached, &rt);
            for _ in 0..2 {
                let plan = planner.plan_key(key);
                let mut cached = input.clone();
                let stats = plan.execute(&mut cached, &rt);
                assert_eq!(cached, uncached, "{}", version.name());
                assert_eq!(stats.codelets, plan.fft_plan().total_codelets() as u64);
            }
        }
        assert_eq!(planner.stats().built, all_versions().len() as u64);
    }

    #[test]
    fn run_codelet_over_the_plan_schedule_matches_execute() {
        // The public unit of work, fired by a caller's own body over the
        // schedule the plan was built from, computes what `execute` does.
        let n = 1 << 13;
        let input = signal(n);
        let rt = Runtime::with_workers(3);
        for version in all_versions() {
            let plan = Plan::build(PlanKey::new(n, version, version.layout()));
            let mut want = input.clone();
            plan.execute(&mut want, &rt);
            let mut got = input.clone();
            bit_reverse_tiled(&mut got, &rt);
            let fired = AtomicU64::new(0);
            {
                let view = SharedData::new(&mut got);
                let body = |id: usize| {
                    fired.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: the runtime fires `id` only once the schedule
                    // lets it, as in `Plan::execute`.
                    unsafe { plan.run_codelet(&view, id) }
                };
                use PoolDiscipline::Lifo;
                match ScheduleSpec::of(*plan.fft_plan(), version) {
                    ScheduleSpec::Phased { phases } => {
                        rt.run_phased(&phases, body);
                    }
                    ScheduleSpec::Fine { graph, seeds } => {
                        rt.run_with_seed_order(&graph, Lifo, &seeds, body);
                    }
                    ScheduleSpec::Guided {
                        early,
                        early_seeds,
                        late,
                        late_seeds,
                    } => {
                        rt.run_partial(&early, Lifo, &early_seeds, early.expected(), body);
                        rt.run_partial(&late, Lifo, &late_seeds, late.expected(), body);
                    }
                }
            }
            let total = plan.fft_plan().total_codelets() as u64;
            assert_eq!(fired.into_inner(), total, "{}", version.name());
            assert_eq!(got, want, "{}", version.name());
        }
    }

    #[test]
    fn plan_matches_reference_across_sizes_and_radices() {
        for (n_log2, radix_log2) in [(1u32, 6u32), (5, 3), (7, 6), (10, 4), (13, 6)] {
            let n = 1usize << n_log2;
            let input = signal(n);
            let expect = recursive_fft(&input);
            let key =
                PlanKey::with_radix(n, Version::FineGuided, TwiddleLayout::Linear, radix_log2);
            let plan = Plan::build(key);
            let mut data = input;
            plan.execute(&mut data, &Runtime::with_workers(3));
            assert!(
                rms_error(&data, &expect) < 1e-9,
                "n=2^{n_log2} radix=2^{radix_log2}"
            );
        }
    }

    #[test]
    fn batch_execution_matches_single_execution() {
        let n = 1 << 13;
        for version in all_versions() {
            let plan = Plan::build(PlanKey::new(n, version, version.layout()));
            let rt = Runtime::with_workers(4);
            // Distinct inputs per batch member.
            let inputs: Vec<Vec<Complex64>> = (0..5)
                .map(|k| {
                    (0..n)
                        .map(|i| Complex64::new((i + k) as f64 * 0.01, (k as f64) - 2.0))
                        .collect()
                })
                .collect();
            let singles: Vec<Vec<Complex64>> = inputs
                .iter()
                .map(|inp| {
                    let mut d = inp.clone();
                    plan.execute(&mut d, &rt);
                    d
                })
                .collect();
            let mut batch = inputs.clone();
            {
                let mut views: Vec<&mut [Complex64]> =
                    batch.iter_mut().map(|b| b.as_mut_slice()).collect();
                let stats = plan.execute_batch(&mut views, &rt);
                assert_eq!(
                    stats.codelets,
                    (5 * plan.fft_plan().total_codelets()) as u64,
                    "{}",
                    version.name()
                );
            }
            assert_eq!(
                batch,
                singles,
                "{}: batch must be bit-identical",
                version.name()
            );
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let n = 1 << 7;
        let plan = Plan::build(PlanKey::new(n, Version::Coarse, TwiddleLayout::Linear));
        let rt = Runtime::with_workers(2);
        let stats = plan.execute_batch(&mut [], &rt);
        assert_eq!(stats.codelets, 0);
        let input = signal(n);
        let expect = recursive_fft(&input);
        let mut solo = input;
        plan.execute_batch(&mut [&mut solo], &rt);
        assert!(rms_error(&solo, &expect) < 1e-10);
    }

    #[test]
    fn planner_caches_and_counts() {
        let planner = Planner::new();
        let a = planner.plan(1 << 9, Version::Coarse, TwiddleLayout::Linear);
        let b = planner.plan(1 << 9, Version::Coarse, TwiddleLayout::Linear);
        let c = planner.plan(1 << 10, Version::Coarse, TwiddleLayout::Linear);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = planner.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.built, 2);
        assert_eq!(stats.cached_plans, 2);
        assert!(stats.resident_bytes > 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(planner.len(), 2);
        planner.clear();
        assert!(planner.is_empty());
        // Cleared: same key builds again.
        let d = planner.plan(1 << 9, Version::Coarse, TwiddleLayout::Linear);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn equivalent_radices_share_an_entry() {
        // radix_log2 is clamped to n_log2, so radix 6 and 7 on a 2^3-point
        // transform are the same plan.
        let planner = Planner::new();
        let a = planner.plan_key(PlanKey::with_radix(
            8,
            Version::Coarse,
            TwiddleLayout::Linear,
            6,
        ));
        let b = planner.plan_key(PlanKey::with_radix(
            8,
            Version::Coarse,
            TwiddleLayout::Linear,
            7,
        ));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(planner.stats().built, 1);
    }

    #[test]
    fn layout_is_part_of_the_key_but_not_the_result() {
        let planner = Planner::new();
        let n = 1 << 9;
        let lin = planner.plan(n, Version::Fine(SeedOrder::Natural), TwiddleLayout::Linear);
        let hash = planner.plan(
            n,
            Version::Fine(SeedOrder::Natural),
            TwiddleLayout::BitReversedHash,
        );
        assert!(!Arc::ptr_eq(&lin, &hash));
        let input = signal(n);
        let rt = Runtime::with_workers(2);
        let mut a = input.clone();
        let mut b = input;
        lin.execute(&mut a, &rt);
        hash.execute(&mut b, &rt);
        assert_eq!(a, b, "layout changes placement, not values");
    }

    /// Keys that are cheap to build (small N) and numerous enough that any
    /// shard gets several: every version × layout × size 2^2..2^10.
    fn cheap_keys() -> Vec<PlanKey> {
        let mut keys = Vec::new();
        for n_log2 in 2..=10u32 {
            for version in all_versions() {
                for layout in [
                    TwiddleLayout::Linear,
                    TwiddleLayout::BitReversedHash,
                    TwiddleLayout::MultiplicativeHash,
                ] {
                    keys.push(PlanKey::new(1 << n_log2, version, layout));
                }
            }
        }
        keys
    }

    #[test]
    fn cache_is_bounded_and_counts_evictions() {
        let planner = Planner::with_capacity(16); // one slot per shard
        let keys = cheap_keys();
        for &key in &keys {
            planner.plan_key(key);
        }
        assert!(
            planner.len() <= SHARD_COUNT,
            "cap is one per shard, got {}",
            planner.len()
        );
        let stats = planner.stats();
        assert_eq!(stats.evictions, (keys.len() - planner.len()) as u64);
        // The most recent key was inserted last, so nothing evicted it.
        let before = planner.stats().hits;
        planner.plan_key(*keys.last().unwrap());
        assert_eq!(planner.stats().hits, before + 1);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // Three cheap keys that share a shard, under a two-per-shard cap.
        let keys = cheap_keys();
        let shard = Planner::shard_of(&keys[0]);
        let same: Vec<PlanKey> = keys
            .into_iter()
            .filter(|k| Planner::shard_of(k) == shard)
            .take(3)
            .collect();
        assert_eq!(same.len(), 3, "need three keys in one shard");
        let (a, b, c) = (same[0], same[1], same[2]);

        let planner = Planner::with_capacity(2 * SHARD_COUNT);
        planner.plan_key(a);
        planner.plan_key(b);
        planner.plan_key(a); // refresh a: b becomes the LRU
        planner.plan_key(c); // full shard: evicts b, keeps a
        let built = planner.stats().built;
        planner.plan_key(a); // still resident
        assert_eq!(planner.stats().built, built, "refreshed key survived");
        planner.plan_key(b); // evicted: must rebuild
        assert_eq!(planner.stats().built, built + 1, "LRU key was dropped");
        assert_eq!(planner.stats().evictions, 2);
    }

    #[test]
    fn planner_builds_tuned_plans_from_wisdom() {
        let n = 1 << 12;
        let key = PlanKey::new(n, Version::Fine(SeedOrder::Natural), TwiddleLayout::Linear);
        let reversed: Vec<usize> = (0..(n >> 6)).rev().collect();
        let mut wisdom = Wisdom::new();
        wisdom.insert(crate::wisdom::WisdomEntry {
            key,
            tuning: ScheduleTuning {
                pool_order: Some(reversed.clone()),
                last_early: None,
                transpose_block_log2: None,
            },
            workers: 2,
            batch: 1,
            backend: Default::default(),
            median_ns: 1,
            seed_median_ns: 2,
            cert: None,
        });

        let planner = Planner::new();
        let untuned = planner.plan_key(key);
        assert!(untuned.tuning().is_none());

        planner.set_wisdom(Some(Arc::new(wisdom)));
        assert!(planner.is_empty(), "set_wisdom clears stale plans");
        let tuned = planner.plan_key(key);
        assert_eq!(
            tuned.tuning().and_then(|t| t.pool_order.as_deref()),
            Some(&reversed[..]),
            "plan was built with the wisdom entry's tuning"
        );
        // Tuning reorders execution, never arithmetic: bit-identical output.
        let input = signal(n);
        let rt = Runtime::with_workers(4);
        let mut plain = input.clone();
        untuned.execute(&mut plain, &rt);
        let mut fast = input;
        tuned.execute(&mut fast, &rt);
        assert_eq!(plain, fast);

        // Other keys are untouched by wisdom for this one.
        let other = planner.plan(n, Version::Coarse, TwiddleLayout::Linear);
        assert!(other.tuning().is_none());

        planner.set_wisdom(None);
        assert!(planner.wisdom().is_none());
        let back = planner.plan_key(key);
        assert!(
            back.tuning().is_none(),
            "clearing wisdom restores seed plans"
        );
    }

    #[test]
    fn ill_formed_wisdom_tuning_degrades_to_seed_plan_without_panic() {
        // The satellite bug: a pool order longer than the plan's pool used
        // to reach `ScheduleSpec::of_tuned` and panic mid-build. It must be
        // rejected, counted, and replaced by the seed schedule.
        let n = 1 << 10;
        let key = PlanKey::new(n, Version::Fine(SeedOrder::Natural), TwiddleLayout::Linear);
        let mut wisdom = Wisdom::new();
        wisdom.insert(crate::wisdom::WisdomEntry {
            key,
            tuning: ScheduleTuning {
                pool_order: Some((0..(n >> 6) + 5).collect()), // too long
                last_early: None,
                transpose_block_log2: None,
            },
            workers: 2,
            batch: 1,
            backend: Default::default(),
            median_ns: 1,
            seed_median_ns: 2,
            cert: None,
        });
        let planner = Planner::new();
        planner.set_wisdom(Some(Arc::new(wisdom)));
        let plan = planner.plan_key(key);
        assert!(plan.tuning().is_none(), "ill-formed tuning must not apply");
        assert_eq!(planner.stats().wisdom_rejections, 1);
        // The plan still works.
        let mut data = signal(n);
        plan.execute(&mut data, &Runtime::with_workers(2));
    }

    #[test]
    fn tampered_certificate_is_rejected_at_build_and_counted() {
        let n = 1 << 10;
        let key = PlanKey::new(n, Version::Fine(SeedOrder::Natural), TwiddleLayout::Linear);
        let tuning = ScheduleTuning {
            pool_order: Some((0..(n >> 6)).rev().collect()),
            last_early: None,
            transpose_block_log2: None,
        };
        let good = crate::cert::Certificate::for_plan(&Plan::build_tuned(key, Some(&tuning)))
            .expect("valid tuning certifies");
        let mut bad = good;
        bad.tables ^= 1; // breaks the seal
        let entry = |cert| crate::wisdom::WisdomEntry {
            key,
            tuning: tuning.clone(),
            workers: 2,
            batch: 1,
            backend: Default::default(),
            median_ns: 1,
            seed_median_ns: 2,
            cert: Some(cert),
        };

        let planner = Planner::new();
        let mut wisdom = Wisdom::new();
        wisdom.insert(entry(bad));
        planner.set_wisdom(Some(Arc::new(wisdom)));
        assert!(planner.plan_key(key).tuning().is_none());
        assert_eq!(planner.stats().wisdom_rejections, 1);

        // The untampered certificate verifies and the tuning applies.
        let mut wisdom = Wisdom::new();
        wisdom.insert(entry(good));
        planner.set_wisdom(Some(Arc::new(wisdom)));
        assert!(planner.plan_key(key).tuning().is_some());
        assert_eq!(planner.stats().wisdom_rejections, 1, "no new rejection");
    }

    /// Table-construction invariants at tiny sizes, single-threaded and
    /// execution-free on purpose: this is the subset CI runs under Miri
    /// (filter `miri_`), where every address the kernels compute — and
    /// every class index and slot they read unchecked — is checked under
    /// the interpreter's strict provenance rules.
    #[test]
    fn miri_table_construction_is_in_bounds_and_partitioned() {
        for (n_log2, radix_log2) in [(4u32, 2u32), (6, 3), (7, 3), (8, 6)] {
            let n = 1usize << n_log2;
            let key = PlanKey::with_radix(
                n,
                Version::Fine(SeedOrder::Natural),
                TwiddleLayout::BitReversedHash,
                radix_log2,
            );
            let plan = Plan::build(key);
            let fft = plan.fft_plan();
            let radix = fft.radix();
            for stage in 0..fft.stages() {
                let table = plan.stage_tables(stage);
                assert_eq!(table.addressing, StageAddressing::of(fft, stage));
                assert!(table.classes.is_power_of_two());
                assert_eq!(table.classes, workload::twiddle_classes(fft, stage));
                let run_len = workload::twiddle_loads(fft, stage);
                assert_eq!(table.twiddles.len(), table.classes * run_len);
                assert_eq!(table.slots.len(), table.pairs.len());
                for &slot in table.slots {
                    assert!((slot as usize) < run_len, "slot {slot} out of the run");
                }
                let mut seen = vec![false; n];
                for idx in 0..fft.codelets_per_stage() {
                    assert!(table.class_of(idx) < table.classes);
                    assert_eq!(table.run(idx).map(<[_]>::len), Some(run_len));
                    for slot in 0..radix {
                        let e = table.addressing.codelet_element(idx, slot);
                        assert!(e < n, "address {e} out of bounds");
                        assert!(!seen[e], "element {e} addressed twice");
                        seen[e] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "stage {stage} misses elements");
                for &(lo, hi) in table.pairs {
                    assert!((lo as usize) < radix && (hi as usize) < radix);
                    assert_ne!(lo, hi);
                }
            }
            // The computed bit reversal's raw reads and writes: one 4 × 4
            // tile at 2^4, one 8 × 8 tile at 2^6, 8 × 8 tile pairs at 2^7
            // and 2^8.
            let mut perm: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
            bit_reverse_tiled(&mut perm, &Runtime::with_workers(1));
            for (i, v) in perm.iter().enumerate() {
                assert_eq!(v.re as usize, crate::bitrev::bit_reverse(i, n_log2));
            }
        }
    }

    /// Twiddle classes keep a fine-guided linear plan under 44 resident
    /// bytes per point at 2^16 and 2^18: the base twiddle table and the
    /// last stage's one run per codelet dominate.
    /// The bit reversal is computed, so a swap list a harness builds
    /// through [`Plan::bitrev_swaps`] is not part of the plan's residency.
    #[test]
    fn resident_bytes_stay_under_44_per_point() {
        for n_log2 in [16u32, 18] {
            let n = 1usize << n_log2;
            let plan = Plan::build(PlanKey::new(n, Version::FineGuided, TwiddleLayout::Linear));
            let per_point = plan.resident_bytes() as f64 / n as f64;
            assert!(per_point <= 44.0, "2^{n_log2}: {per_point:.1} B/point");
            let before = plan.resident_bytes();
            assert_eq!(
                plan.bitrev_swaps().len(),
                (n - (1 << n_log2.div_ceil(2))) / 2
            );
            assert_eq!(plan.resident_bytes(), before);
        }
    }

    /// Computing element addresses instead of storing them brings a 2^18
    /// fine-guided plan to 24.5 resident bytes per point or fewer: the
    /// base twiddle table (16), the last stage's one class run per codelet
    /// and the tile program are what is left.
    #[test]
    fn resident_bytes_at_2e18_fit_24_5_per_point() {
        let n = 1usize << 18;
        let plan = Plan::build(PlanKey::new(n, Version::FineGuided, TwiddleLayout::Linear));
        let per_point = plan.resident_bytes() as f64 / n as f64;
        assert!(per_point <= 24.5, "{per_point:.2} B/point");
    }

    /// The gather view is a harness accessor only: building a plan, every
    /// execute path (scalar and default kernels, single and batched,
    /// recorded, every kind) and certificate issue and verification leave
    /// it unbuilt. Once asked for, it holds the generator's addresses and
    /// does not count as resident.
    #[test]
    fn gather_views_are_built_only_on_request() {
        fn untouched(plan: &Plan) -> bool {
            plan.tables.iter().all(|t| t.gather.get().is_none())
                && plan.col_plan().is_none_or(untouched)
        }
        let runtime = Runtime::with_workers(2);
        let version = Version::FineGuided;
        let planar = TransformKind::C2C2D {
            rows_log2: 5,
            cols_log2: 5,
        };
        for kind in [
            TransformKind::C2C,
            TransformKind::R2C,
            TransformKind::C2R,
            planar,
        ] {
            let key = PlanKey::with_kind(kind, 1 << 10, version, version.layout(), 6);
            let plan = Arc::new(Plan::build(key));
            assert!(untouched(&plan), "{kind:?}: build");
            let input = signal(plan.buffer_len());
            let mut data = input.clone();
            plan.execute(&mut data, &runtime);
            let mut batch = vec![input.clone(); 2];
            let mut views: Vec<&mut [Complex64]> =
                batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            plan.execute_batch(&mut views, &runtime);
            for sel in [crate::BackendSel::SCALAR, crate::BackendSel::default()] {
                let mut data = input.clone();
                sel.prepare(&plan).execute(&mut data, &runtime);
            }
            let mut data = input.clone();
            plan.execute_recorded(&mut data, &runtime);
            let cert = crate::cert::Certificate::for_plan(&plan).unwrap();
            cert.verify_plan(&plan).unwrap();
            assert!(untouched(&plan), "{kind:?}: execute and certify");
        }

        let plan = Plan::build(PlanKey::new(1 << 9, version, version.layout()));
        let before = plan.resident_bytes();
        let fft = *plan.fft_plan();
        for stage in 0..fft.stages() {
            let gather = plan.stage_table(stage).gather;
            assert_eq!(gather.len(), fft.n());
            for idx in 0..fft.codelets_per_stage() {
                fft.for_each_element(stage, idx, |slot, e| {
                    assert_eq!(gather[idx * fft.radix() + slot] as usize, e);
                });
            }
        }
        assert!(!untouched(&plan));
        assert_eq!(plan.resident_bytes(), before);
    }

    /// The invariants the tile dispatch's `unsafe` calls rest on, at tiny
    /// sizes for Miri: every codelet is in exactly one tile, member ids are
    /// in bounds and of one stage, the tiles of a stage touch disjoint
    /// elements, and the slices fire every tile.
    #[test]
    fn miri_tile_lowering_partitions_codelets_into_disjoint_tiles() {
        for (n_log2, radix_log2) in [(4u32, 2u32), (6, 2), (8, 3), (8, 6)] {
            for version in [Version::Coarse, Version::FineGuided] {
                let key = PlanKey::with_radix(1 << n_log2, version, version.layout(), radix_log2);
                let plan = Plan::build(key);
                let (fft, tiles) = (plan.fft_plan(), plan.tiles());
                let total = fft.total_codelets();
                assert_eq!(tiles.num_tiles() * tiles.tile_len(), total);
                let mut owner = vec![usize::MAX; total];
                let mut toucher = vec![vec![usize::MAX; fft.n()]; fft.stages()];
                for tile in 0..tiles.num_tiles() {
                    let members = tiles.members(tile);
                    let stage = fft.stage_of(members.start);
                    for id in members {
                        assert!(id < total, "tile {tile} member {id} out of bounds");
                        assert_eq!(owner[id], usize::MAX, "codelet {id} in two tiles");
                        owner[id] = tile;
                        assert_eq!(fft.stage_of(id), stage, "tile {tile} spans stages");
                        let (idx, addr) = (fft.idx_of(id), StageAddressing::of(fft, stage));
                        for slot in 0..fft.radix() {
                            let e = addr.codelet_element(idx, slot);
                            let seen = &mut toucher[stage][e];
                            assert!(*seen == usize::MAX || *seen == tile, "element {e}");
                            *seen = tile;
                        }
                    }
                }
                assert!(owner.iter().all(|&t| t != usize::MAX), "codelet in no tile");
                let fired: usize = tiles
                    .slices()
                    .iter()
                    .map(|slice| match slice {
                        TileSlice::Phased(phases) => phases.iter().map(Vec::len).sum(),
                        TileSlice::Dataflow {
                            program,
                            seeds,
                            expected,
                        } => {
                            assert!(seeds.iter().all(|&s| s < program.num_codelets()));
                            *expected
                        }
                    })
                    .sum();
                assert_eq!(fired, tiles.num_tiles(), "{}", version.name());
            }
        }
    }

    #[test]
    fn miri_certificate_digests_are_stable_across_rebuilds() {
        let key = PlanKey::with_radix(1 << 6, Version::Coarse, TwiddleLayout::Linear, 3);
        let a = crate::cert::Certificate::for_plan(&Plan::build(key)).unwrap();
        let b = crate::cert::Certificate::for_plan(&Plan::build(key)).unwrap();
        assert_eq!(a, b, "digests are deterministic");
        b.verify_plan(&Plan::build(key)).unwrap();
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.4 * (i as f64 * 1.1).cos())
            .collect()
    }

    fn pack_real(signal: &[f64]) -> Vec<Complex64> {
        signal
            .chunks_exact(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect()
    }

    #[test]
    fn r2c_plan_matches_promoted_complex_dft() {
        for n in [4usize, 64, 1 << 12] {
            let x = real_signal(n);
            let promoted: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let expect = recursive_fft(&promoted);
            let key = PlanKey::with_kind(
                TransformKind::R2C,
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            );
            let plan = Plan::build(key);
            assert_eq!(plan.buffer_len(), n / 2);
            let mut packed = pack_real(&x);
            plan.execute(&mut packed, &Runtime::with_workers(3));
            // Halfcomplex: slot 0 packs the (real) DC and Nyquist bins.
            assert!(
                (packed[0].re - expect[0].re).abs() < 1e-9 * n as f64,
                "n={n} DC"
            );
            assert!(
                (packed[0].im - expect[n / 2].re).abs() < 1e-9 * n as f64,
                "n={n} Nyquist"
            );
            for k in 1..n / 2 {
                assert!(
                    packed[k].dist(expect[k]) < 1e-9 * n as f64,
                    "n={n} bin {k}: {} vs {}",
                    packed[k],
                    expect[k]
                );
            }
        }
    }

    #[test]
    fn c2r_inverts_r2c_through_plans() {
        for n in [8usize, 256, 1 << 12] {
            let x = real_signal(n);
            let fwd = Plan::build(PlanKey::with_kind(
                TransformKind::R2C,
                n,
                Version::Coarse,
                TwiddleLayout::Linear,
                6,
            ));
            let inv = Plan::build(PlanKey::with_kind(
                TransformKind::C2R,
                n,
                Version::Coarse,
                TwiddleLayout::Linear,
                6,
            ));
            let rt = Runtime::with_workers(2);
            let mut buf = pack_real(&x);
            fwd.execute(&mut buf, &rt);
            inv.execute(&mut buf, &rt);
            let err: f64 = buf
                .iter()
                .flat_map(|v| [v.re, v.im])
                .zip(&x)
                .map(|(a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
                / n as f64;
            assert!(err < 1e-12, "n={n}: roundtrip error {err}");
        }
    }

    #[test]
    fn plan_2d_matches_row_column_reference() {
        for (rows_log2, cols_log2) in [(2u32, 3u32), (4, 4), (3, 6)] {
            let (rows, cols) = (1usize << rows_log2, 1usize << cols_log2);
            let n = rows * cols;
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.23).sin(), (i as f64 * 0.31).cos()))
                .collect();
            // Reference: 1D FFT each row, then each column.
            let mut expect = input.clone();
            for row in expect.chunks_exact_mut(cols) {
                let out = recursive_fft(row);
                row.copy_from_slice(&out);
            }
            for c in 0..cols {
                let col: Vec<Complex64> = (0..rows).map(|r| expect[r * cols + c]).collect();
                let out = recursive_fft(&col);
                for (r, v) in out.into_iter().enumerate() {
                    expect[r * cols + c] = v;
                }
            }
            let key = PlanKey::with_kind(
                TransformKind::C2C2D {
                    rows_log2,
                    cols_log2,
                },
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            );
            let plan = Plan::build(key);
            assert_eq!(plan.buffer_len(), n);
            assert!(plan.col_plan().is_some());
            let mut got = input;
            plan.execute(&mut got, &Runtime::with_workers(3));
            assert!(rms_error(&got, &expect) < 1e-9, "{rows}x{cols}");
        }
    }

    #[test]
    fn kind_batch_matches_single_execution() {
        let n = 1 << 10;
        let rt = Runtime::with_workers(3);
        for kind in [
            TransformKind::R2C,
            TransformKind::C2R,
            TransformKind::C2C2D {
                rows_log2: 4,
                cols_log2: 6,
            },
        ] {
            let plan = Plan::build(PlanKey::with_kind(
                kind,
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            ));
            let len = plan.buffer_len();
            let inputs: Vec<Vec<Complex64>> = (0..4)
                .map(|k| {
                    (0..len)
                        .map(|i| Complex64::new((i + k) as f64 * 0.01, (i * k) as f64 * 0.003))
                        .collect()
                })
                .collect();
            let singles: Vec<Vec<Complex64>> = inputs
                .iter()
                .map(|inp| {
                    let mut d = inp.clone();
                    plan.execute(&mut d, &rt);
                    d
                })
                .collect();
            let mut batch = inputs.clone();
            let mut views: Vec<&mut [Complex64]> =
                batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            plan.execute_batch(&mut views, &rt);
            drop(views);
            assert_eq!(batch, singles, "{kind:?}: batch must be bit-identical");
        }
    }

    #[test]
    fn tuned_transpose_block_changes_footprint_not_values() {
        let key = PlanKey::with_kind(
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 5,
            },
            1 << 10,
            Version::Coarse,
            TwiddleLayout::Linear,
            6,
        );
        let seed = Plan::build(key);
        assert_eq!(seed.transpose_block_log2(), Some(5));
        let tuning = ScheduleTuning {
            pool_order: None,
            last_early: None,
            transpose_block_log2: Some(3),
        };
        let tuned = Plan::build_tuned(key, Some(&tuning));
        assert_eq!(tuned.transpose_block_log2(), Some(3));
        let input = signal(1 << 10);
        let rt = Runtime::with_workers(2);
        let mut a = input.clone();
        let mut b = input;
        seed.execute(&mut a, &rt);
        tuned.execute(&mut b, &rt);
        assert_eq!(a, b, "tile size changes traffic shape, not values");
    }

    #[test]
    #[should_panic(expected = "invalid transform kind")]
    fn with_kind_rejects_mismatched_2d_shape() {
        PlanKey::with_kind(
            TransformKind::C2C2D {
                rows_log2: 3,
                cols_log2: 3,
            },
            1 << 10,
            Version::Coarse,
            TwiddleLayout::Linear,
            6,
        );
    }

    #[test]
    fn shared_planner_is_a_singleton() {
        let a = Planner::shared();
        let b = Planner::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn key_rejects_non_power_of_two() {
        PlanKey::new(12, Version::Coarse, TwiddleLayout::Linear);
    }

    #[test]
    #[should_panic(expected = "buffer length must match")]
    fn execute_rejects_wrong_length() {
        let plan = Plan::build(PlanKey::new(8, Version::Coarse, TwiddleLayout::Linear));
        let mut data = signal(16);
        plan.execute(&mut data, &Runtime::with_workers(1));
    }

    #[test]
    fn every_version_matches_reference() {
        let n = 1 << 13; // 3 stages at radix 64 → guided is exercised
        let input = signal(n);
        let expect = recursive_fft(&input);
        for version in all_versions() {
            for workers in [1, 4] {
                let mut data = input.clone();
                let stats = run(&mut data, version, 6, workers);
                assert_eq!(stats.codelets, 3 * (n as u64 / 64));
                let err = rms_error(&data, &expect);
                assert!(
                    err < 1e-9,
                    "{} workers={workers}: rms {err}",
                    version.name()
                );
            }
        }
    }

    #[test]
    fn versions_agree_bitwise() {
        // Determinacy: all schedules produce the same floating-point values,
        // not merely close ones — the DAG fixes the arithmetic.
        let n = 1 << 12;
        let input = signal(n);
        let mut baseline = input.clone();
        run(&mut baseline, Version::Coarse, 6, 4);
        for version in all_versions() {
            let mut data = input.clone();
            run(&mut data, version, 6, 4);
            assert_eq!(data, baseline, "{}", version.name());
        }
    }

    #[test]
    fn coarse_uses_one_barrier_per_stage() {
        let mut data = signal(1 << 13);
        assert_eq!(run(&mut data, Version::Coarse, 6, 2).barriers, 3);
    }

    #[test]
    fn guided_runs_two_phases() {
        let mut data = signal(1 << 13);
        let stats = run(&mut data, Version::FineGuided, 6, 2);
        assert_eq!(stats.phases.len(), 2);
        assert_eq!(stats.barriers, 1);
        assert_eq!(
            stats.phases[0].total_fired, 128,
            "early phase = stage 0 only for 3 stages"
        );
        assert_eq!(stats.phases[1].total_fired, 256);
    }

    #[test]
    fn guided_falls_back_for_small_transforms() {
        let input = signal(1 << 7); // 2 stages at radix 64
        let expect = recursive_fft(&input);
        let mut data = input;
        let stats = run(&mut data, Version::FineGuided, 6, 2);
        assert_eq!(stats.phases.len(), 1);
        assert!(rms_error(&data, &expect) < 1e-10);
    }

    #[test]
    fn small_radix_works() {
        let input = signal(1 << 10);
        let expect = recursive_fft(&input);
        for radix_log2 in [1u32, 3, 5] {
            let mut data = input.clone();
            run(&mut data, Version::Fine(SeedOrder::Natural), radix_log2, 3);
            assert!(rms_error(&data, &expect) < 1e-9, "radix 2^{radix_log2}");
        }
    }

    #[test]
    fn tiny_transform() {
        let input = signal(2);
        let expect = recursive_fft(&input);
        let mut data = input;
        run(&mut data, Version::Coarse, 6, 2);
        assert!(rms_error(&data, &expect) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        run(&mut signal(12), Version::Coarse, 6, 1);
    }

    #[test]
    fn seed_orders_are_permutations() {
        for order in [
            SeedOrder::Natural,
            SeedOrder::Reversed,
            SeedOrder::EvenOdd,
            SeedOrder::Random(7),
        ] {
            let v = order.order(100);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "{order:?}");
        }
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        assert_eq!(
            SeedOrder::Random(3).order(50),
            SeedOrder::Random(3).order(50)
        );
        assert_ne!(
            SeedOrder::Random(3).order(50),
            SeedOrder::Random(4).order(50)
        );
    }
}
