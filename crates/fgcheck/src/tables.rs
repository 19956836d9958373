//! Pass 4: the flattened-table verifier (codes FG401–FG407).
//!
//! The first three passes verify the *workload-level* schedule — the graphs
//! and footprints `fgfft::simwork` executes. But the serving hot path runs a
//! second, independent lowering: [`fgfft::Plan`] materializes per-stage
//! gather/butterfly/slot tables and one run of distinct twiddles per
//! twiddle class, which `unsafe` codelet execution streams through
//! **without bounds checks**, on the strength of two assumptions:
//!
//! 1. every table index — gather entry, butterfly pair, twiddle slot and
//!    class — is in bounds for the plan's buffers, and
//! 2. codelets that may run concurrently (same stage) have pairwise
//!    disjoint data footprints — each stage's gather is a *partition* of
//!    the data array.
//!
//! This pass checks both statically, plus — differentially — that the
//! tables are byte-identical to what [`fgfft::workload`]'s authority
//! functions derive, so the two lowerings can never drift apart silently.
//! The twiddle check runs per codelet: the run it reads through its class
//! and the slot pattern must expand to the authority's per-butterfly run
//! bitwise, which proves the class map and not just the stored values.
//!
//! | code    | severity | meaning                                               |
//! |---------|----------|-------------------------------------------------------|
//! | `FG401` | error    | gather index out of bounds for the data array         |
//! | `FG402` | error    | butterfly pair, twiddle slot or class out of bounds   |
//! | `FG403` | error    | table shape mismatch (lengths, class count, run length vs the plan's algebra) |
//! | `FG404` | error    | stage gather is not a partition (aliasing under `unsafe`) |
//! | `FG405` | error    | a codelet's slot-indexed twiddles differ bitwise from the workload authority |
//! | `FG406` | error    | gather/pairs/slots differ from the workload authority |
//! | `FG407` | error    | bit-reversal swap list invalid or drifted             |
//! | `FG409` | error    | composite-kind extension tables (untangle / column plan) drifted |
//!
//! All findings are errors: each one is a violated precondition of an
//! `unsafe` block, not a style concern. To keep reports readable on badly
//! corrupted tables, at most one diagnostic per (stage, code) is emitted —
//! the first violation found.
//!
//! The checker has two entry points: [`check_plan`] for a built
//! [`fgfft::Plan`] (what `check_fft` and the CLI run), and the slice-level
//! [`check_plan_tables`] that fuzz tests feed deliberately mutated tables.

use codelet::verify::{Diagnostic, Severity};
use fgfft::bitrev::bit_reverse_swaps;
use fgfft::planner::StageTableView;
use fgfft::workload::{self};
use fgfft::{FftPlan, Plan, TwiddleTable};

/// Gather index out of bounds.
pub const CODE_GATHER_BOUNDS: &str = "FG401";
/// Butterfly pair, twiddle slot or twiddle class out of bounds (or a
/// degenerate pair).
pub const CODE_PAIR_BOUNDS: &str = "FG402";
/// Table shape mismatch.
pub const CODE_TABLE_SHAPE: &str = "FG403";
/// Stage gather is not a partition of the data array.
pub const CODE_STAGE_ALIASING: &str = "FG404";
/// A codelet's slot-indexed twiddles drifted from the workload authority.
pub const CODE_TWIDDLE_DRIFT: &str = "FG405";
/// Gather/pair/slot tables drifted from the workload authority.
pub const CODE_TABLE_DRIFT: &str = "FG406";
/// Bit-reversal swap list invalid or drifted.
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

/// Verify the flattened execution tables of a built plan: bounds,
/// per-stage disjointness, and byte-identity with the workload authority.
pub fn check_plan(plan: &Plan) -> Vec<Diagnostic> {
    let fft = plan.fft_plan();
    let stages: Vec<StageTableView<'_>> = (0..fft.stages()).map(|s| plan.stage_table(s)).collect();
    check_plan_tables(fft, plan.twiddles(), &stages, plan.bitrev_swaps())
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

/// Slice-level core of [`check_plan`]: verify `stages` and `swaps` as if
/// they were the flattened tables of a plan for `fft` under `twiddles`.
///
/// Exposed separately so tests can feed *mutated* tables — bit flips,
/// truncations, off-by-one indices — and assert each mutant draws the
/// specific code for its violation, which a `Plan`'s encapsulated tables
/// (correct by construction) could never exercise.
pub fn check_plan_tables(
    fft: &FftPlan,
    twiddles: &TwiddleTable,
    stages: &[StageTableView<'_>],
    swaps: &[(u32, u32)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = 1usize << fft.n_log2();
    let radix = 1usize << fft.radix_log2();
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
        check_swaps(n, swaps, &mut out);
        return out;
    }

    // Reused scratch: which global element each stage's gather claims.
    let mut claimed = vec![u32::MAX; n];
    let mut authority_tw = Vec::new();

    for (stage, table) in stages.iter().enumerate() {
        let q = fft.levels(stage);
        let expect_pairs = (q as usize) << (fft.radix_log2() - 1);
        let classes = workload::twiddle_classes(fft, stage);
        let run_len = workload::twiddle_loads(fft, stage);

        // FG403 — shapes first: the remaining checks index by them.
        if table.gather.len() != cps * radix
            || table.pairs.len() != expect_pairs
            || table.slots.len() != expect_pairs
            || table.classes != classes
            || table.twiddles.len() != classes * run_len
        {
            out.push(error(
                CODE_TABLE_SHAPE,
                None,
                format!(
                    "stage {stage}: gather {} (want {}), pairs {} and slots {} (want \
                     {expect_pairs}), classes {} (want {classes}), class runs {} (want \
                     {classes} × {run_len})",
                    table.gather.len(),
                    cps * radix,
                    table.pairs.len(),
                    table.slots.len(),
                    table.classes,
                    table.twiddles.len(),
                ),
            ));
            continue; // indices below would be meaningless
        }

        // FG401 — every gather index addresses the data array.
        if let Some((slot, &g)) = table
            .gather
            .iter()
            .enumerate()
            .find(|&(_, &g)| g as usize >= n)
        {
            out.push(error(
                CODE_GATHER_BOUNDS,
                Some(stage * cps + slot / radix),
                format!(
                    "stage {stage}: gather[{slot}] = {g} out of bounds for N = {n} \
                     (unsafe scatter/gather would read past the buffer)"
                ),
            ));
        }

        // FG402 — every butterfly pair stays inside the codelet buffer and
        // names two distinct slots (lo = hi would double-write one slot);
        // every twiddle slot stays inside a class run, and every codelet's
        // class names a stored run (the kernels read both unchecked).
        if let Some((i, &(lo, hi))) = table
            .pairs
            .iter()
            .enumerate()
            .find(|&(_, &(lo, hi))| lo >= hi || hi as usize >= radix)
        {
            out.push(error(
                CODE_PAIR_BOUNDS,
                None,
                format!(
                    "stage {stage}: pair[{i}] = ({lo}, {hi}) invalid for radix {radix} \
                     (want lo < hi < radix)"
                ),
            ));
        }
        let bad_slot = table.slots.iter().position(|&s| s as usize >= run_len);
        if let Some(i) = bad_slot {
            out.push(error(
                CODE_PAIR_BOUNDS,
                None,
                format!(
                    "stage {stage}: slot[{i}] = {} out of a {run_len}-value class run",
                    table.slots[i]
                ),
            ));
        }
        if let Some(idx) = (0..cps).find(|&idx| table.class_of(idx) >= classes) {
            out.push(error(
                CODE_PAIR_BOUNDS,
                Some(stage * cps + idx),
                format!(
                    "stage {stage}: codelet {idx} maps to class {} of {classes}",
                    table.class_of(idx)
                ),
            ));
        }

        // FG404 — the stage's gather must partition 0..N: cps·radix = N
        // entries, each element claimed exactly once. This *is* the
        // pairwise-disjointness precondition of running the stage's
        // codelets concurrently over one buffer without synchronization.
        let stamp = stage as u32;
        let mut aliased = None;
        for (slot, &g) in table.gather.iter().enumerate() {
            let g = g as usize;
            if g >= n {
                continue; // already an FG401
            }
            if claimed[g] == stamp {
                aliased = Some((slot, g));
                break;
            }
            claimed[g] = stamp;
        }
        if let Some((slot, g)) = aliased {
            out.push(error(
                CODE_STAGE_ALIASING,
                Some(stage * cps + slot / radix),
                format!(
                    "stage {stage}: element {g} gathered twice (second claim by codelet \
                     buffer slot {slot}) — concurrent codelets of one stage would alias \
                     under the unsafe execution contract"
                ),
            ));
        }

        // FG406 — differential: byte-identical to the workload authority.
        let auth_gather = workload::stage_gather(fft, stage);
        let auth_pairs = workload::butterfly_pairs(fft, stage);
        let auth_slots = workload::twiddle_slots(fft, stage);
        if table.gather != auth_gather.as_slice()
            || table.pairs != auth_pairs.as_slice()
            || table.slots != auth_slots.as_slice()
        {
            out.push(error(
                CODE_TABLE_DRIFT,
                None,
                format!(
                    "stage {stage}: gather/pair/slot tables differ from the workload \
                     authority — the two lowerings have drifted"
                ),
            ));
        }

        // FG405 — per codelet, the twiddles the kernel reads (its class run
        // through the slot pattern) bitwise equal to the authority's
        // per-butterfly run. Bitwise, not approximate: the plan is supposed
        // to *copy* these values, and any rounding difference means it
        // recomputed them another way.
        if bad_slot.is_some() {
            continue; // the expansion would index past a run
        }
        for idx in 0..cps {
            let Some(run) = table.run(idx) else { continue };
            authority_tw.clear();
            workload::append_twiddle_run(fft, twiddles, stage, idx, &mut authority_tw);
            let drift = table.slots.iter().zip(&authority_tw).position(|(&s, b)| {
                let a = run[s as usize];
                a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits()
            });
            if let Some(i) = drift {
                let slot = table.slots[i] as usize;
                out.push(error(
                    CODE_TWIDDLE_DRIFT,
                    Some(stage * cps + idx),
                    format!(
                        "stage {stage}: codelet {idx} butterfly {i} reads class {} slot \
                         {slot} = {}, which differs bitwise from the workload authority's {}",
                        table.class_of(idx),
                        run[slot],
                        authority_tw[i]
                    ),
                ));
                break; // one diagnostic per (stage, code)
            }
        }
    }

    check_swaps(n, swaps, &mut out);
    out
}

/// FG407 — the bit-reversal swap list: in bounds and exactly the authority's
/// transposition list (each swap (a, b) with a < b, applied once).
fn check_swaps(n: usize, swaps: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    if let Some((i, &(a, b))) = swaps
        .iter()
        .enumerate()
        .find(|&(_, &(a, b))| a as usize >= n || b as usize >= n || a >= b)
    {
        out.push(error(
            CODE_BITREV_DRIFT,
            None,
            format!("bitrev swap[{i}] = ({a}, {b}) invalid for N = {n} (want a < b < N)"),
        ));
        return;
    }
    let authority = bit_reverse_swaps(n);
    if swaps != authority.as_slice() {
        out.push(error(
            CODE_BITREV_DRIFT,
            None,
            format!(
                "bit-reversal swap list ({} swaps) differs from the authority's ({}) — \
                 the permutation would not be the bit reversal",
                swaps.len(),
                authority.len()
            ),
        ));
    }
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
        // gather partitions. FG401–FG407 must accept them exactly like the
        // paper's radix-64 codelets — the partition property (FG404) is the
        // aliasing precondition that licenses the backend's vector loads
        // over each codelet's local buffer.
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

    #[test]
    fn mutated_gather_draws_fg401_and_fg404() {
        let p = plan(9, Version::FineGuided);
        let fft = p.fft_plan();
        let mut stages: Vec<StageTableView<'_>> =
            (0..fft.stages()).map(|s| p.stage_table(s)).collect();
        let mut gather = stages[1].gather.to_vec();
        gather[3] = 1 << 9; // one past the end
        stages[1] = StageTableView {
            gather: &gather,
            ..stages[1]
        };
        let diags = check_plan_tables(fft, p.twiddles(), &stages, p.bitrev_swaps());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&CODE_GATHER_BOUNDS), "{codes:?}");
        // The clobbered element is also no longer claimed → not a partition
        // (reported as drift too; aliasing needs a duplicate).
        assert!(codes.contains(&CODE_TABLE_DRIFT), "{codes:?}");
    }

    #[test]
    fn duplicated_gather_entry_is_stage_aliasing() {
        let p = plan(9, Version::Fine(SeedOrder::Natural));
        let fft = p.fft_plan();
        let mut stages: Vec<StageTableView<'_>> =
            (0..fft.stages()).map(|s| p.stage_table(s)).collect();
        let mut gather = stages[0].gather.to_vec();
        gather[70] = gather[2]; // two codelets now share an element
        stages[0] = StageTableView {
            gather: &gather,
            ..stages[0]
        };
        let diags = check_plan_tables(fft, p.twiddles(), &stages, p.bitrev_swaps());
        assert!(
            diags.iter().any(|d| d.code == CODE_STAGE_ALIASING),
            "{diags:?}"
        );
    }

    #[test]
    fn truncated_tables_and_swapped_twiddles_are_reported() {
        let p = plan(9, Version::CoarseHash);
        let fft = p.fft_plan();
        let full: Vec<StageTableView<'_>> = (0..fft.stages()).map(|s| p.stage_table(s)).collect();

        // Truncated gather: shape error.
        let mut stages = full.clone();
        let gather = &full[0].gather[..full[0].gather.len() - 1];
        stages[0] = StageTableView { gather, ..full[0] };
        let diags = check_plan_tables(fft, p.twiddles(), &stages, p.bitrev_swaps());
        assert!(
            diags.iter().any(|d| d.code == CODE_TABLE_SHAPE),
            "{diags:?}"
        );

        // One twiddle bit flipped: bitwise drift.
        let mut stages = full.clone();
        let mut tw = full[1].twiddles.to_vec();
        tw[5].re = f64::from_bits(tw[5].re.to_bits() ^ 1);
        stages[1] = StageTableView {
            twiddles: &tw,
            ..full[1]
        };
        let diags = check_plan_tables(fft, p.twiddles(), &stages, p.bitrev_swaps());
        assert!(
            diags.iter().any(|d| d.code == CODE_TWIDDLE_DRIFT),
            "{diags:?}"
        );
    }

    /// The class-table mutations, each against the code that owns it: a
    /// slot past its run is FG402, a class count off by one is FG403, and
    /// one flipped value of the last class run (the only codelet reading
    /// it is the last) is FG405 for that codelet.
    #[test]
    fn mutated_class_tables_draw_their_codes() {
        let p = Plan::build(PlanKey::with_radix(
            1 << 13,
            Version::FineGuided,
            TwiddleLayout::BitReversedHash,
            6,
        ));
        let fft = p.fft_plan();
        let full: Vec<StageTableView<'_>> = (0..fft.stages()).map(|s| p.stage_table(s)).collect();
        let codes = |stages: &[StageTableView<'_>]| -> Vec<(&'static str, Option<usize>)> {
            check_plan_tables(fft, p.twiddles(), stages, p.bitrev_swaps())
                .iter()
                .map(|d| (d.code, d.codelet))
                .collect()
        };
        assert!(codes(&full).is_empty());

        let mut slots = full[1].slots.to_vec();
        slots[7] = full[1].run_len() as u8;
        let mut stages = full.clone();
        stages[1] = StageTableView {
            slots: &slots,
            ..full[1]
        };
        assert!(codes(&stages).contains(&(CODE_PAIR_BOUNDS, None)));

        for classes in [full[1].classes - 1, full[1].classes + 1] {
            let mut stages = full.clone();
            stages[1] = StageTableView { classes, ..full[1] };
            assert!(
                codes(&stages).contains(&(CODE_TABLE_SHAPE, None)),
                "{classes}"
            );
        }

        let last = fft.stages() - 1;
        let mut tw = full[last].twiddles.to_vec();
        let i = tw.len() - 1;
        tw[i].im = f64::from_bits(tw[i].im.to_bits() ^ 1);
        let mut stages = full.clone();
        stages[last] = StageTableView {
            twiddles: &tw,
            ..full[last]
        };
        let id = last * fft.codelets_per_stage() + fft.codelets_per_stage() - 1;
        assert_eq!(codes(&stages), [(CODE_TWIDDLE_DRIFT, Some(id))]);
    }

    #[test]
    fn corrupt_bitrev_swaps_are_fg407() {
        let p = plan(9, Version::Coarse);
        let fft = p.fft_plan();
        let stages: Vec<StageTableView<'_>> = (0..fft.stages()).map(|s| p.stage_table(s)).collect();
        // Out-of-bounds swap.
        let mut swaps = p.bitrev_swaps().to_vec();
        swaps[0].1 = 1 << 9;
        let diags = check_plan_tables(fft, p.twiddles(), &stages, &swaps);
        assert!(
            diags.iter().any(|d| d.code == CODE_BITREV_DRIFT),
            "{diags:?}"
        );
        // In-bounds but wrong permutation.
        let mut swaps = p.bitrev_swaps().to_vec();
        swaps.pop();
        let diags = check_plan_tables(fft, p.twiddles(), &stages, &swaps);
        assert!(
            diags.iter().any(|d| d.code == CODE_BITREV_DRIFT),
            "{diags:?}"
        );
    }
}
