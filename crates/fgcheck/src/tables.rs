//! Pass 4: the plan-table and generator verifier (codes FG401–FG409).
//!
//! The first three passes verify the *workload-level* schedule — the graphs
//! and footprints `fgfft::simwork` executes. But the serving hot path runs a
//! second, independent lowering: [`fgfft::Plan`] stores per stage its
//! addressing parameters and, where codelets share twiddles, one run of
//! distinct twiddles per twiddle class; the unshared last stage stores no
//! runs, and its kernels read the base twiddle table at the direct index
//! [`TwiddleIndex`] gives. Its kernels compute every element address with
//! the stage's generator ([`StageAddressing::element`]) and the butterfly
//! pattern from the same parameters. The vector kernel reads and writes
//! **without bounds checks**, on the strength of two assumptions:
//!
//! 1. every computed address and table index — element address, class
//!    and offset table — is in bounds for the plan's buffers, and
//! 2. codelets that may run concurrently (same stage) have pairwise
//!    disjoint data footprints — each stage's addresses *partition* the
//!    data array (which is also what lets the lane kernel load sub-
//!    transforms `g` and `g + 1` in one vector).
//!
//! This pass checks both, plus — differentially — that the tables and
//! generators equal what [`fgfft::workload`]'s authority functions derive,
//! so the two lowerings can never drift apart silently. The generator
//! checks ([`check_addressing`], [`check_twiddle_index`]) *run* the
//! address and twiddle index functions the kernels call, at the plan's
//! size, and so take deliberately broken generators too; the bit reversal
//! has no table either, and FG407 checks the plan's generator
//! ([`fgfft::bitrev::bit_reverse_tiled`]) against the [`bit_reverse`]
//! authority the same way. The twiddle check runs per codelet: the run it
//! reads — through its class, or from the base table through the offset
//! table — must equal the authority's distinct twiddles bitwise, which
//! proves the class map and the direct index and not just the stored
//! values.
//!
//! | code    | severity | meaning                                               |
//! |---------|----------|-------------------------------------------------------|
//! | `FG401` | error    | a generated element address is out of bounds for the data array |
//! | `FG403` | error    | table shape mismatch (class count, run or offset-table length, addressing or direct index parameters vs the plan's algebra) |
//! | `FG404` | error    | a stage's generated addresses are not a partition (aliasing under `unsafe`) |
//! | `FG405` | error    | a codelet's run, or the direct twiddle index generator, differs from the workload authority |
//! | `FG406` | error    | address generator or offset table differs from the workload authority |
//! | `FG407` | error    | computed bit reversal differs from the `bit_reverse` authority |
//! | `FG409` | error    | composite-kind extension tables (untangle / column plan) drifted |
//!
//! FG402 (butterfly pair or twiddle slot out of bounds) is retired: plans
//! store neither, and its number is not reused.
//!
//! All findings are errors: each one is a violated precondition of an
//! `unsafe` block, not a style concern. To keep reports readable on badly
//! corrupted tables, at most one diagnostic per (stage, code) is emitted —
//! the first violation found.
//!
//! The checker has five entry points: [`check_plan`] for a built
//! [`fgfft::Plan`] (what `check_fft` and the CLI run), the slice-level
//! [`check_plan_tables`] that fuzz tests feed deliberately mutated tables,
//! and [`check_addressing`], [`check_twiddle_index`] and
//! [`check_bit_reversal`], which run any address, index or permutation
//! generator and so take deliberately broken ones too.

use codelet::runtime::Runtime;
use codelet::verify::{Diagnostic, Severity};
use fgfft::bitrev::{bit_reverse, bit_reverse_tiled};
use fgfft::planner::{run_scratch, StageTables, StageTwiddles};
use fgfft::workload::{self, StageAddressing, TwiddleIndex};
use fgfft::{Complex64, FftPlan, Plan, TwiddleLayout, TwiddleTable};

/// A generated element address out of bounds.
pub const CODE_GATHER_BOUNDS: &str = "FG401";
/// Table shape mismatch.
pub const CODE_TABLE_SHAPE: &str = "FG403";
/// A stage's generated addresses are not a partition of the data array.
pub const CODE_STAGE_ALIASING: &str = "FG404";
/// A codelet's run drifted from the workload authority.
pub const CODE_TWIDDLE_DRIFT: &str = "FG405";
/// The address generator or an offset table drifted from the workload
/// authority.
pub const CODE_TABLE_DRIFT: &str = "FG406";
/// The computed bit reversal differs from the [`bit_reverse`] authority.
pub const CODE_BITREV_DRIFT: &str = "FG407";
/// Composite-kind extension tables (untangle / column plan) invalid or
/// drifted from the workload authority.
pub const CODE_KIND_DRIFT: &str = "FG409";

fn error(code: &'static str, codelet: Option<usize>, message: String) -> Diagnostic {
    Diagnostic {
        code,
        severity: Severity::Error,
        codelet,
        message,
    }
}

/// Verify the execution tables of a built plan (shapes and identity with
/// the workload authority), the address generator its kernels call
/// (bounds, per-stage partition, identity with the authority), and the
/// bit reversal it computes before its stages.
pub fn check_plan(plan: &Plan) -> Vec<Diagnostic> {
    let fft = plan.fft_plan();
    let stages: Vec<StageTables<'_>> = (0..fft.stages()).map(|s| plan.stage_tables(s)).collect();
    let mut out = check_plan_tables(fft, plan.twiddles(), &stages);
    out.extend(check_addressing(fft, StageAddressing::element));
    out.extend(check_twiddle_index(fft, TwiddleIndex::slot));
    out.extend(check_bit_reversal(fft.n_log2(), bit_reverse_tiled));
    out
}

/// FG401/FG404/FG406 — run `element` (the production generator is
/// [`StageAddressing::element`], the function every kernel computes its
/// addresses with) over every slot of every codelet of every stage of
/// `fft`, with the stage's [`StageAddressing`], and require each address
/// to be in bounds (FG401), each stage's addresses to claim every element
/// exactly once (FG404) and each address to equal the authority,
/// [`FftPlan::for_each_element`] (FG406). Codelet `idx`'s buffer slot `s`
/// is slot `s mod 2^q` of sub-transform `idx·2^(p−q) + (s >> q)`.
pub fn check_addressing(
    fft: &FftPlan,
    element: impl Fn(&StageAddressing, usize, usize) -> usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = fft.n();
    let cps = fft.codelets_per_stage();
    let mut claimed = vec![usize::MAX; n];
    for stage in 0..fft.stages() {
        let addr = StageAddressing::of(fft, stage);
        let (mut bounds, mut alias, mut drift) = (None, None, None);
        for idx in 0..cps {
            fft.for_each_element(stage, idx, |slot, want| {
                let g = (idx << addr.groups_log2) | (slot >> addr.levels);
                let x = slot & ((1 << addr.levels) - 1);
                let e = element(&addr, g, x);
                if e != want && drift.is_none() {
                    drift = Some((idx, g, x, e, want));
                }
                if e >= n {
                    bounds.get_or_insert((idx, g, x, e));
                } else if claimed[e] == stage {
                    alias.get_or_insert((idx, e));
                } else {
                    claimed[e] = stage;
                }
            });
        }
        if let Some((idx, g, x, e)) = bounds {
            out.push(error(
                CODE_GATHER_BOUNDS,
                Some(stage * cps + idx),
                format!(
                    "stage {stage}: slot {x} of sub-transform {g} is addressed at {e}, out of \
                     bounds for N = {n} (an unsafe load or store would leave the buffer)"
                ),
            ));
        }
        if let Some((idx, e)) = alias {
            out.push(error(
                CODE_STAGE_ALIASING,
                Some(stage * cps + idx),
                format!(
                    "stage {stage}: element {e} addressed twice (second claim by codelet \
                     {idx}) — concurrent codelets of one stage would alias under the \
                     unsafe execution contract"
                ),
            ));
        }
        if let Some((idx, g, x, e, want)) = drift {
            out.push(error(
                CODE_TABLE_DRIFT,
                Some(stage * cps + idx),
                format!(
                    "stage {stage}: slot {x} of sub-transform {g} is addressed at {e}; the \
                     workload authority requires {want} — the generator has drifted"
                ),
            ));
        }
    }
    out
}

/// FG407 — run `permute` (the production generator is
/// [`bit_reverse_tiled`]) over a `2^n_log2`-element buffer holding its own
/// indices, on one worker and on two, and require element `j` to come
/// from [`bit_reverse`]`(j)` — the same authority the twiddle hash uses.
pub fn check_bit_reversal(
    n_log2: u32,
    permute: impl Fn(&mut [Complex64], &Runtime),
) -> Vec<Diagnostic> {
    let n = 1usize << n_log2;
    for workers in [1, 2] {
        let mut data: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        permute(&mut data, &Runtime::with_workers(workers));
        let wrong = data.iter().enumerate().find(|&(j, v)| {
            v.re.to_bits() != (bit_reverse(j, n_log2) as f64).to_bits() || v.im != 0.0
        });
        if let Some((j, v)) = wrong {
            return vec![error(
                CODE_BITREV_DRIFT,
                None,
                format!(
                    "bit reversal at N = 2^{n_log2} on {workers} worker(s) puts element {} at \
                     {j}; the authority requires {}",
                    v.re,
                    bit_reverse(j, n_log2)
                ),
            )];
        }
    }
    Vec::new()
}

/// Pass 4's composite-kind extension: verify a plan's untangle twiddle
/// table bitwise against [`workload::untangle_table`] (real kinds) and run
/// the full [`check_plan`] recursively over the column plan (2D). A no-op
/// (empty vec) on plain C2C plans.
pub fn check_kind_extensions(plan: &Plan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(table) = plan.untangle() {
        let authority = workload::untangle_table(plan.key().n_log2);
        if table.len() != authority.len() {
            out.push(error(
                CODE_KIND_DRIFT,
                None,
                format!(
                    "untangle table holds {} factors, authority requires {}",
                    table.len(),
                    authority.len()
                ),
            ));
        } else if let Some(k) = (0..table.len()).find(|&k| {
            table[k].re.to_bits() != authority[k].re.to_bits()
                || table[k].im.to_bits() != authority[k].im.to_bits()
        }) {
            out.push(error(
                CODE_KIND_DRIFT,
                None,
                format!(
                    "untangle factor {k} differs bitwise from the workload \
                     authority: plan {:?}, authority {:?}",
                    table[k], authority[k]
                ),
            ));
        }
    }
    if let Some(col) = plan.col_plan() {
        for mut d in check_plan(col) {
            d.message = format!("column plan: {}", d.message);
            out.push(d);
        }
        out.extend(check_kind_extensions(col));
    }
    out
}

/// Slice-level core of [`check_plan`]'s table checks: verify `stages` as
/// if they were the execution tables of a plan for `fft` under `twiddles`.
///
/// Exposed separately so tests can feed *mutated* tables — bit flips,
/// truncations, off-by-one indices — and assert each mutant draws the
/// specific code for its violation, which a `Plan`'s encapsulated tables
/// (correct by construction) could never exercise.
pub fn check_plan_tables(
    fft: &FftPlan,
    twiddles: &TwiddleTable,
    stages: &[StageTables<'_>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cps = fft.codelets_per_stage();

    if stages.len() != fft.stages() {
        out.push(error(
            CODE_TABLE_SHAPE,
            None,
            format!(
                "plan has {} stage tables, algebra requires {}",
                stages.len(),
                fft.stages()
            ),
        ));
        // Per-stage checks below would index the wrong stage's authority.
        return out;
    }

    let mut authority_tw = Vec::new();
    let mut scratch = run_scratch();

    for (stage, table) in stages.iter().enumerate() {
        let q = fft.levels(stage);
        let run_len = workload::twiddle_loads(fft, stage);
        let addressing = StageAddressing::of(fft, stage);
        let index = TwiddleIndex::of(fft, stage, twiddles.layout());

        // FG403 — shapes first: the remaining checks index by them. A
        // shared stage stores its canonical class runs; an unshared one
        // stores none and reads the whole base table through its own
        // generator and a full offset table.
        let (twiddles_ok, want_twiddles) = if workload::twiddles_unshared(fft, stage) {
            let ok = matches!(table.twiddles, StageTwiddles::Base { index: i, offsets, base }
                if i == index && offsets.len() == (1 << q) - 1 && base.len() == twiddles.len());
            (
                ok,
                format!(
                    "the base table through {index:?} with {} offsets",
                    (1 << q) - 1
                ),
            )
        } else {
            let classes = workload::twiddle_classes(fft, stage);
            let ok = matches!(table.twiddles, StageTwiddles::Classes { classes: c, runs }
                if c == classes && runs.len() == classes * run_len);
            (ok, format!("{classes} class runs × {run_len}"))
        };
        if table.addressing != addressing || !twiddles_ok {
            out.push(error(
                CODE_TABLE_SHAPE,
                None,
                format!(
                    "stage {stage}: addressing {:?} (want {addressing:?}), twiddles {} (want \
                     {want_twiddles})",
                    table.addressing,
                    describe(&table.twiddles),
                ),
            ));
            continue; // indices below would be meaningless
        }

        // FG406 — differential: the offset table is the generator's.
        if let StageTwiddles::Base { offsets, .. } = table.twiddles {
            if offsets != index.offsets(q).as_slice() {
                out.push(error(
                    CODE_TABLE_DRIFT,
                    None,
                    format!(
                        "stage {stage}: offset table differs from the direct index \
                         generator's — the kernels would read other twiddles"
                    ),
                ));
            }
        }

        // FG405 — per codelet, the run the kernels read (stored or read
        // from the base table) bitwise equal to the authority's distinct
        // twiddles, in load order. Bitwise, not approximate: the plan is
        // supposed to *read* these values, and any rounding difference
        // means it recomputed them another way.
        for idx in 0..cps {
            let Some(run) = table.run(idx, &mut scratch) else {
                continue;
            };
            authority_tw.clear();
            workload::for_each_twiddle_index(fft, stage, idx, |t| {
                authority_tw.push(twiddles.get(t))
            });
            let drift = run.iter().zip(&authority_tw).position(|(a, b)| {
                a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits()
            });
            if let Some(i) = drift {
                out.push(error(
                    CODE_TWIDDLE_DRIFT,
                    Some(stage * cps + idx),
                    format!(
                        "stage {stage}: codelet {idx} reads run entry {i} = {}, which \
                         differs bitwise from the workload authority's {}",
                        run[i], authority_tw[i]
                    ),
                ));
                break; // one diagnostic per (stage, code)
            }
        }
    }

    out
}

/// A stage's twiddle source, for diagnostics.
fn describe(twiddles: &StageTwiddles<'_>) -> String {
    match *twiddles {
        StageTwiddles::Classes { classes, runs } => {
            format!("{classes} classes over {} stored values", runs.len())
        }
        StageTwiddles::Base {
            index,
            offsets,
            base,
        } => format!(
            "a {}-value base table through {index:?} with {} offsets",
            base.len(),
            offsets.len()
        ),
    }
}

/// FG405 — run `slot` (the production generator is [`TwiddleIndex::slot`],
/// the index both kernels read an unshared stage's twiddles at) for every
/// twiddle of every codelet of every unshared stage of `fft`, under each
/// of the three layouts, and require the slot the authority names:
/// [`workload::for_each_twiddle_index`]'s logical index, placed by
/// [`TwiddleTable::map_index`]. Level `ll`'s offset `t` of sub-transform
/// `g` comes in the authority's order (level, sub-transform, offset).
pub fn check_twiddle_index(
    fft: &FftPlan,
    slot: impl Fn(&TwiddleIndex, usize, u32, usize) -> usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (n_log2, cps) = (fft.n_log2(), fft.codelets_per_stage());
    let layouts = [
        TwiddleLayout::Linear,
        TwiddleLayout::BitReversedHash,
        TwiddleLayout::MultiplicativeHash,
    ];
    for stage in (0..fft.stages()).filter(|&s| workload::twiddles_unshared(fft, s)) {
        let addr = StageAddressing::of(fft, stage);
        for layout in layouts {
            let index = TwiddleIndex::of(fft, stage, layout);
            let mut drift = None;
            for idx in 0..cps {
                let mut want = Vec::with_capacity(workload::twiddle_loads(fft, stage));
                workload::for_each_twiddle_index(fft, stage, idx, |t| {
                    want.push(TwiddleTable::map_index(t, n_log2, layout))
                });
                let mut want = want.into_iter();
                for ll in 0..addr.levels {
                    for g in idx << addr.groups_log2..(idx + 1) << addr.groups_log2 {
                        for t in 0..1usize << ll {
                            let (got, want) = (slot(&index, g, ll, t), want.next());
                            if Some(got) != want && drift.is_none() {
                                drift = Some((idx, g, ll, t, got, want));
                            }
                        }
                    }
                }
            }
            if let Some((idx, g, ll, t, got, want)) = drift {
                out.push(error(
                    CODE_TWIDDLE_DRIFT,
                    Some(stage * cps + idx),
                    format!(
                        "stage {stage} ({layout:?}): level {ll} twiddle {t} of sub-transform \
                         {g} is read at slot {got}; the authority stores it at {want:?} — the \
                         direct index generator has drifted"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgfft::exec::{SeedOrder, Version};
    use fgfft::planner::PlanKey;
    use fgfft::TwiddleLayout;

    fn plan(n_log2: u32, version: Version) -> Plan {
        Plan::build(PlanKey::new(1usize << n_log2, version, version.layout()))
    }

    #[test]
    fn built_plans_pass_for_every_version_and_layout() {
        for version in Version::paper_set(SeedOrder::Natural) {
            let p = plan(10, version);
            let diags = check_plan(&p);
            assert!(diags.is_empty(), "{version:?}: {diags:?}");
        }
        // Layout override changes twiddle storage, not validity.
        let key = PlanKey::new(
            1 << 9,
            Version::Fine(SeedOrder::Reversed),
            TwiddleLayout::MultiplicativeHash,
        );
        assert!(check_plan(&Plan::build(key)).is_empty());
    }

    #[test]
    fn radix8_plans_pass_every_pass4_check() {
        // The SIMD backend's preferred codelet shape: radix-8 (and radix-4)
        // codelets. FG401–FG407 must accept them exactly like the paper's
        // radix-64 codelets — the partition property (FG404) is the
        // aliasing precondition that licenses the lane kernel's vector
        // loads straight from the data.
        for version in Version::paper_set(SeedOrder::Natural) {
            for (radix_log2, n_log2) in [(3u32, 6u32), (3, 9), (3, 10), (2, 8)] {
                let key =
                    PlanKey::with_radix(1usize << n_log2, version, version.layout(), radix_log2);
                let p = Plan::build(key);
                let diags = check_plan(&p);
                assert!(
                    diags.is_empty(),
                    "{version:?} radix 2^{radix_log2} N=2^{n_log2}: {diags:?}"
                );
            }
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// A generator that sends one slot past the end draws FG401 (and, as
    /// it no longer matches the authority, FG406).
    #[test]
    fn out_of_bounds_generator_draws_fg401() {
        let fft = FftPlan::new(12, 6);
        assert!(check_addressing(&fft, StageAddressing::element).is_empty());
        let past_end = |a: &StageAddressing, g: usize, x: usize| {
            if a.stride_log2 == 6 && g == 3 && x == 1 {
                1 << 12
            } else {
                a.element(g, x)
            }
        };
        let diags = check_addressing(&fft, past_end);
        assert_eq!(codes(&diags), [CODE_GATHER_BOUNDS, CODE_TABLE_DRIFT]);
        assert_eq!(diags[0].codelet, Some(fft.codelets_per_stage() + 3));
    }

    /// A generator that hands one element to two codelets of a stage is
    /// stage aliasing.
    #[test]
    fn aliasing_generator_is_fg404() {
        let fft = FftPlan::new(9, 6);
        let shared = |a: &StageAddressing, g: usize, x: usize| {
            a.element(
                if a.stride_log2 == 0 && g == 1 && x == 2 {
                    0
                } else {
                    g
                },
                x,
            )
        };
        let diags = check_addressing(&fft, shared);
        assert_eq!(codes(&diags), [CODE_STAGE_ALIASING, CODE_TABLE_DRIFT]);
        assert_eq!(diags[0].codelet, Some(1));
    }

    /// A generator with one wrong bit never passes: a flipped address bit
    /// keeps a partition but leaves the authority (FG406); a bit stuck at
    /// 1 or at 0 also hands elements to two slots (FG404). Each address
    /// bit, at full and partial last stages.
    #[test]
    fn broken_address_generators_are_fg404_or_fg406() {
        for (n_log2, radix_log2) in [(12u32, 6u32), (13, 6), (10, 3), (9, 7)] {
            let fft = FftPlan::new(n_log2, radix_log2);
            assert!(check_addressing(&fft, StageAddressing::element).is_empty());
            for bit in 0..n_log2 {
                let everywhere =
                    |a: &StageAddressing, g: usize, x: usize| a.element(g, x) ^ (1 << bit);
                let diags = check_addressing(&fft, everywhere);
                assert!(!diags.is_empty(), "2^{n_log2} r{radix_log2} bit {bit}");
                assert!(
                    diags.iter().all(|d| d.code == CODE_TABLE_DRIFT),
                    "{diags:?}"
                );
                let stuck_at_1 =
                    |a: &StageAddressing, g: usize, x: usize| a.element(g, x) | (1 << bit);
                let stuck_at_0 =
                    |a: &StageAddressing, g: usize, x: usize| a.element(g, x) & !(1 << bit);
                for diags in [
                    check_addressing(&fft, stuck_at_1),
                    check_addressing(&fft, stuck_at_0),
                ] {
                    let per_stage = [CODE_STAGE_ALIASING, CODE_TABLE_DRIFT];
                    assert_eq!(codes(&diags), per_stage.repeat(fft.stages()), "bit {bit}");
                }
            }
        }
    }

    #[test]
    fn truncated_tables_and_swapped_twiddles_are_reported() {
        let p = plan(9, Version::CoarseHash);
        let fft = p.fft_plan();
        let full: Vec<StageTables<'_>> = (0..fft.stages()).map(|s| p.stage_tables(s)).collect();

        // Addressing parameters of another stage: shape error.
        let mut stages = full.clone();
        stages[1] = StageTables {
            addressing: full[0].addressing,
            ..full[1]
        };
        let diags = check_plan_tables(fft, p.twiddles(), &stages);
        assert_eq!(codes(&diags), [CODE_TABLE_SHAPE]);

        // One twiddle bit flipped in stage 0's class run: bitwise drift.
        let StageTwiddles::Classes { classes, runs } = full[0].twiddles else {
            panic!("stage 0 shares its twiddles");
        };
        let mut tw = runs.to_vec();
        tw[5].re = f64::from_bits(tw[5].re.to_bits() ^ 1);
        let mut stages = full.clone();
        stages[0] = StageTables {
            twiddles: StageTwiddles::Classes { classes, runs: &tw },
            ..full[0]
        };
        let diags = check_plan_tables(fft, p.twiddles(), &stages);
        assert!(
            diags.iter().any(|d| d.code == CODE_TWIDDLE_DRIFT),
            "{diags:?}"
        );
    }

    /// The class-table mutations, each against the code that owns it: a
    /// class count off by one is FG403, and one flipped value of the last
    /// class run of stage 1 (read first by codelet 63 of 128) is FG405 for
    /// that codelet.
    #[test]
    fn mutated_class_tables_draw_their_codes() {
        let p = Plan::build(PlanKey::with_radix(
            1 << 13,
            Version::FineGuided,
            TwiddleLayout::BitReversedHash,
            6,
        ));
        let fft = p.fft_plan();
        let full: Vec<StageTables<'_>> = (0..fft.stages()).map(|s| p.stage_tables(s)).collect();
        let codes = |stages: &[StageTables<'_>]| -> Vec<(&'static str, Option<usize>)> {
            check_plan_tables(fft, p.twiddles(), stages)
                .iter()
                .map(|d| (d.code, d.codelet))
                .collect()
        };
        assert!(codes(&full).is_empty());

        let StageTwiddles::Classes { classes, runs } = full[1].twiddles else {
            panic!("stage 1 shares its twiddles");
        };
        for classes in [classes - 1, classes + 1] {
            let mut stages = full.clone();
            stages[1] = StageTables {
                twiddles: StageTwiddles::Classes { classes, runs },
                ..full[1]
            };
            assert!(
                codes(&stages).contains(&(CODE_TABLE_SHAPE, None)),
                "{classes}"
            );
        }

        let mut tw = runs.to_vec();
        let i = tw.len() - 1;
        tw[i].im = f64::from_bits(tw[i].im.to_bits() ^ 1);
        let mut stages = full.clone();
        stages[1] = StageTables {
            twiddles: StageTwiddles::Classes { classes, runs: &tw },
            ..full[1]
        };
        let id = fft.codelets_per_stage() + classes - 1;
        assert_eq!(codes(&stages), [(CODE_TWIDDLE_DRIFT, Some(id))]);
    }

    /// The unshared last stage stores no runs. Reading it from the base
    /// table through another stage's generator or a short offset table is
    /// FG403; one wrong offset is FG406 for the table and FG405 for the
    /// first codelet that reads it.
    #[test]
    fn mutated_base_table_reads_draw_their_codes() {
        for layout in [
            TwiddleLayout::Linear,
            TwiddleLayout::BitReversedHash,
            TwiddleLayout::MultiplicativeHash,
        ] {
            let p = Plan::build(PlanKey::with_radix(1 << 13, Version::Coarse, layout, 6));
            let fft = p.fft_plan();
            let full: Vec<StageTables<'_>> = (0..fft.stages()).map(|s| p.stage_tables(s)).collect();
            let codes = |stages: &[StageTables<'_>]| -> Vec<(&'static str, Option<usize>)> {
                check_plan_tables(fft, p.twiddles(), stages)
                    .iter()
                    .map(|d| (d.code, d.codelet))
                    .collect()
            };
            assert!(codes(&full).is_empty(), "{layout:?}");
            let last = fft.stages() - 1;
            let StageTwiddles::Base {
                index,
                offsets,
                base,
            } = full[last].twiddles
            else {
                panic!("the last stage reads the base table");
            };
            let with = |index, offsets| {
                let mut stages = full.clone();
                stages[last] = StageTables {
                    twiddles: StageTwiddles::Base {
                        index,
                        offsets,
                        base,
                    },
                    ..full[last]
                };
                codes(&stages)
            };
            let other_stage = TwiddleIndex::of(fft, 1, layout);
            assert_eq!(with(other_stage, offsets), [(CODE_TABLE_SHAPE, None)]);
            let short = &offsets[..offsets.len() - 1];
            assert_eq!(with(index, short), [(CODE_TABLE_SHAPE, None)]);
            // Level 0's one offset is 0; moving it reads another twiddle
            // at every codelet's first butterfly.
            let mut moved = offsets.to_vec();
            moved[0] += 1;
            let first = last * fft.codelets_per_stage();
            assert_eq!(
                with(index, &moved),
                [(CODE_TABLE_DRIFT, None), (CODE_TWIDDLE_DRIFT, Some(first))],
                "{layout:?}"
            );
        }
    }

    /// The direct index generator equals the authority under every layout
    /// for every codelet radix, full and partial last stages; one with the
    /// lane field shifted one bit too far is FG405 under each layout.
    #[test]
    fn direct_twiddle_index_matches_the_authority() {
        for (n_log2, radix_log2) in [(12u32, 6u32), (13, 6), (10, 3), (9, 7), (4, 2), (6, 1)] {
            let fft = FftPlan::new(n_log2, radix_log2);
            let diags = check_twiddle_index(&fft, TwiddleIndex::slot);
            assert!(diags.is_empty(), "2^{n_log2} r{radix_log2}: {diags:?}");
        }
        let fft = FftPlan::new(12, 6);
        let shifted = |i: &TwiddleIndex, g: usize, ll: u32, t: usize| {
            ((i.lane(g, ll) << 1) + i.offset(ll, t)) & i.mask()
        };
        let diags = check_twiddle_index(&fft, shifted);
        assert_eq!(codes(&diags), [CODE_TWIDDLE_DRIFT; 3], "{diags:?}");
        let last = fft.stages() - 1;
        assert!(diags
            .iter()
            .all(|d| d.codelet.is_some_and(|c| fft.stage_of(c) == last)));
    }

    /// FG407 runs the generator, so a broken one draws it: a permutation
    /// with one exchange undone, and one that is right on one worker only.
    #[test]
    fn broken_bit_reversal_generators_are_fg407() {
        for n_log2 in [1u32, 6, 9, 20] {
            assert!(check_bit_reversal(n_log2, bit_reverse_tiled).is_empty());
        }
        let codes = |diags: Vec<Diagnostic>| diags.iter().map(|d| d.code).collect::<Vec<_>>();
        let one_undone = |data: &mut [Complex64], rt: &Runtime| {
            bit_reverse_tiled(data, rt);
            data.swap(1, data.len() / 2);
        };
        assert_eq!(
            codes(check_bit_reversal(9, one_undone)),
            [CODE_BITREV_DRIFT]
        );
        let serial_only = |data: &mut [Complex64], rt: &Runtime| {
            if rt.workers() == 1 {
                bit_reverse_tiled(data, rt);
            }
        };
        assert_eq!(
            codes(check_bit_reversal(9, serial_only)),
            [CODE_BITREV_DRIFT]
        );
    }
}
