//! Integration tests of the `fgcheck` static analyzer against the real FFT
//! schedules: every shipped version must be provably race-free, a seeded
//! dropped-arc mutation must be caught, and the pass-3 linter must reproduce
//! the paper's Fig. 1 bank-0 observation from addresses alone.

use c64sim::ChipConfig;
use codelet::graph::{CodeletId, CodeletProgram, WithoutSharedGroups};
use codelet::verify;
use fgcheck::tiles::{members, segments};
use fgcheck::{
    check_fft, check_lowering, check_tiles, find_races, FftCheckOptions, HbOrder, Segment,
    CODE_BANK_IMBALANCE, CODE_COVERAGE, CODE_RACE,
};
use fgfft::graph::FftGraph;
use fgfft::tiles::TileSlice;
use fgfft::{
    FftPlan, FftWorkload, Plan, PlanKey, SeedOrder, SimVersion, TwiddleLayout, Version, Workload,
};

const N_LOG2: u32 = 15;

fn all_versions() -> [SimVersion; 5] {
    [
        SimVersion::Coarse,
        SimVersion::CoarseHash,
        SimVersion::Fine(SeedOrder::Natural),
        SimVersion::FineHash(SeedOrder::Natural),
        SimVersion::FineGuided,
    ]
}

fn all_layouts() -> [TwiddleLayout; 3] {
    [
        TwiddleLayout::Linear,
        TwiddleLayout::BitReversedHash,
        TwiddleLayout::MultiplicativeHash,
    ]
}

#[test]
fn every_version_and_layout_is_clean_at_2_15() {
    for version in all_versions() {
        for layout in all_layouts() {
            let report = check_fft(&FftCheckOptions {
                layout: Some(layout),
                ..FftCheckOptions::new(N_LOG2, version)
            });
            assert!(
                !report.has_errors(),
                "{} / {:?}:\n{}",
                version.name(),
                layout,
                report.render_text()
            );
            assert!(
                report.races.is_clean(),
                "{} / {layout:?} races",
                version.name()
            );
            assert!(
                !verify::has_errors(&report.contract),
                "{} / {layout:?} contract",
                version.name()
            );
        }
    }
}

#[test]
fn seed_orders_are_all_clean() {
    // The race freedom of the fine version must not depend on the seeding
    // order of the ready pool.
    for order in [
        SeedOrder::Natural,
        SeedOrder::Reversed,
        SeedOrder::EvenOdd,
        SeedOrder::Random(7),
    ] {
        let report = check_fft(&FftCheckOptions::new(N_LOG2, SimVersion::Fine(order)));
        assert!(!report.has_errors(), "{order:?}:\n{}", report.render_text());
    }
}

/// Wrapper that deletes one dependence arc `from -> to` *consistently*
/// (both the arc and the dependence count), modeling the classic fine-grain
/// porting bug: the graph still satisfies the pass-1 contract — counts match
/// arcs, everything fires — but the ordering the arc provided is gone.
struct DropEdge<P> {
    inner: P,
    from: CodeletId,
    to: CodeletId,
}

impl<P: CodeletProgram> CodeletProgram for DropEdge<P> {
    fn num_codelets(&self) -> usize {
        self.inner.num_codelets()
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        self.inner.dep_count(id) - (id == self.to) as u32
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        if id != self.from {
            return self.inner.dependents(id, out);
        }
        let start = out.len();
        self.inner.dependents(id, out);
        if let Some(pos) = out[start..].iter().position(|&c| c == self.to) {
            out.remove(start + pos);
        }
    }

    fn initial_ready(&self) -> Vec<CodeletId> {
        self.inner.initial_ready()
    }
}

#[test]
fn dropped_arc_passes_the_contract_but_is_flagged_as_a_race() {
    let plan = FftPlan::new(12, 6);
    let chip = ChipConfig::cyclops64();
    let workload = FftWorkload::new(plan, TwiddleLayout::Linear, &chip);

    // Pick a real arc: the first stage-1 codelet and one of its parents.
    // Shared-counter groups are stripped first — with them in place the
    // group counter would re-order the pair via the parent's other arcs.
    let base = WithoutSharedGroups(FftGraph::new(plan));
    let child = plan.codelet_id(1, 0);
    let mut kids = Vec::new();
    let parent = (0..plan.codelets_per_stage())
        .find(|&idx| {
            kids.clear();
            base.dependents(plan.codelet_id(0, idx), &mut kids);
            kids.contains(&child)
        })
        .map(|idx| plan.codelet_id(0, idx))
        .expect("stage-1 codelet must have a stage-0 parent");

    let sane_races = {
        let (hb, cov) = HbOrder::build(
            base.num_codelets(),
            &[Segment::Graph {
                program: &base,
                seeds: base.initial_ready(),
            }],
        );
        assert!(cov.is_empty());
        find_races(base.num_codelets(), |t| workload.footprint(t), &hb)
    };
    assert!(sane_races.is_clean(), "unmutated graph must be race-free");

    let mutated = DropEdge {
        inner: base,
        from: parent,
        to: child,
    };
    // Pass 1 cannot see the bug: counts and arcs were edited consistently.
    let contract = verify::check_program(&mutated);
    assert!(
        !verify::has_errors(&contract),
        "mutation must be contract-clean:\n{}",
        verify::render(&contract)
    );
    // Pass 2 does: parent writes elements the child reads, now unordered.
    let (hb, cov) = HbOrder::build(
        mutated.num_codelets(),
        &[Segment::Graph {
            seeds: mutated.initial_ready(),
            program: &mutated,
        }],
    );
    assert!(cov.is_empty());
    let races = find_races(mutated.num_codelets(), |t| workload.footprint(t), &hb);
    assert!(!races.is_clean(), "dropped arc must race");
    assert!(
        races
            .pairs
            .iter()
            .any(|&(a, b, _)| (a, b) == (parent.min(child), parent.max(child))),
        "the racing pair must be the severed arc {parent}->{child}, got {:?}",
        races.pairs
    );
    assert!(races.diagnostics().iter().all(|d| d.code == CODE_RACE));
}

/// The host lowering of a 2^12 fine-guided plan: two stages, so guided
/// degrades to one dataflow slice, over 8 tiles of 16 codelets.
fn host_plan() -> (Plan, Workload) {
    let plan = Plan::build(PlanKey::new(
        1 << 12,
        Version::FineGuided,
        TwiddleLayout::Linear,
    ));
    let workload = Workload::new(*plan.fft_plan(), TwiddleLayout::Linear);
    (plan, workload)
}

#[test]
fn dropped_tile_edge_passes_the_contract_but_races() {
    let (plan, workload) = host_plan();
    let (tiles, n) = (plan.tiles(), plan.fft_plan().total_codelets());
    assert_eq!((tiles.num_tiles(), tiles.tile_len()), (8, 16));
    let sane = check_lowering(tiles, n, |c| workload.footprint(c));
    assert!(
        sane.diagnostics().is_empty(),
        "{}",
        verify::render(&sane.diagnostics())
    );

    let [TileSlice::Dataflow {
        program,
        seeds,
        expected,
    }] = tiles.slices()
    else {
        panic!("a two-stage guided plan lowers to one dataflow slice");
    };
    let from = seeds[0];
    let to = program.children(from)[0] as usize;
    let mutated = DropEdge {
        inner: program.clone(),
        from,
        to,
    };
    let contract = verify::check_partial(&mutated, seeds, *expected);
    assert!(
        !verify::has_errors(&contract),
        "mutation must be contract-clean:\n{}",
        verify::render(&contract)
    );
    let check = check_tiles(
        n,
        &members(tiles),
        &[Segment::Graph {
            program: &mutated,
            seeds: seeds.clone(),
        }],
        |c| workload.footprint(c),
    );
    assert!(check.contract.is_empty());
    assert!(
        check
            .races
            .pairs
            .iter()
            .any(|&(a, b, _)| (a, b) == (from, to)),
        "the racing pair must be the severed tile edge {from}->{to}, got {:?}",
        check.races.pairs
    );
    assert!(check.diagnostics().iter().all(|d| d.code == CODE_RACE));
}

#[test]
fn tile_membership_overlaps_and_holes_are_fg101() {
    let (plan, workload) = host_plan();
    let (tiles, n) = (plan.tiles(), plan.fft_plan().total_codelets());
    let segs = segments(tiles);
    let coverage_of = |members: &[Vec<usize>], codelet: usize| {
        let check = check_tiles(n, members, &segs, |c| workload.footprint(c));
        check
            .contract
            .iter()
            .any(|d| d.code == CODE_COVERAGE && d.codelet == Some(codelet))
    };
    let sane = members(tiles);
    assert!((0..n).all(|c| !coverage_of(&sane, c)));

    // A codelet run by two tiles.
    let mut twice = sane.clone();
    let shared = twice[0][3];
    twice[1].push(shared);
    assert!(coverage_of(&twice, shared), "codelet {shared} in two tiles");

    // A codelet run by no tile.
    let mut hole = sane;
    let dropped = hole[5].remove(7);
    assert!(coverage_of(&hole, dropped), "codelet {dropped} in no tile");
}

#[test]
fn removing_the_stage_barrier_races() {
    // The coarse schedule collapsed to a single phase: stage s+1 codelets
    // read what stage s writes with nothing ordering them.
    let plan = FftPlan::new(12, 6);
    let chip = ChipConfig::cyclops64();
    let workload = FftWorkload::new(plan, TwiddleLayout::Linear, &chip);
    let n = plan.total_codelets();
    let (hb, _) = HbOrder::build(n, &[Segment::Stages(vec![(0..n).collect()])]);
    let races = find_races(n, |t| workload.footprint(t), &hb);
    assert!(
        !races.is_clean(),
        "a barrier-free coarse schedule must race"
    );
}

#[test]
fn linear_layout_draws_the_bank_zero_lint_and_hashed_does_not() {
    let linear = check_fft(&FftCheckOptions::new(N_LOG2, SimVersion::Coarse));
    // Fig. 1 as a lint: the early stages' twiddle wave rides on bank 0.
    assert!(
        !linear.bank_lint.is_empty(),
        "linear twiddles at 2^{N_LOG2} must trip the bank linter"
    );
    assert!(linear
        .bank_lint
        .iter()
        .all(|d| d.code == CODE_BANK_IMBALANCE));
    assert!(
        linear.bank_lint[0].message.starts_with("level 0:"),
        "stage 0 must be flagged: {}",
        linear.bank_lint[0].message
    );
    let row0 = &linear.bank.hist[0];
    let peak = row0.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0;
    assert_eq!(peak, 0, "stage-0 peak bank must be bank 0: {row0:?}");
    // Warnings, not errors: the schedule is still *correct*.
    assert!(!linear.has_errors());

    let hashed = check_fft(&FftCheckOptions::new(N_LOG2, SimVersion::CoarseHash));
    assert!(
        hashed.bank_lint.is_empty(),
        "hashed layout must silence the linter, got: {}",
        verify::render(&hashed.bank_lint)
    );
}

#[test]
fn report_renders_and_serializes() {
    let report = check_fft(&FftCheckOptions::new(12, SimVersion::FineGuided));
    let text = report.render_text();
    assert!(text.contains("fine guided"));
    assert!(text.contains("races: none"));
    let json = report.to_json().to_string();
    let parsed = fgsupport::json::parse(&json).expect("valid JSON");
    assert_eq!(
        parsed.get("clean"),
        Some(&fgsupport::json::Value::Bool(true)),
        "{json}"
    );
    assert_eq!(parsed.get("n_log2").and_then(|v| v.as_u64()), Some(12));
}

#[test]
fn guided_levels_match_the_stage_structure() {
    let report = check_fft(&FftCheckOptions::new(N_LOG2, SimVersion::FineGuided));
    let plan = FftPlan::new(N_LOG2, 6);
    assert_eq!(report.bank.hist.len(), plan.stages());
    // Every stage level carries traffic.
    for level in 0..plan.stages() {
        assert!(
            report.bank.imbalance(level).is_some(),
            "level {level} empty"
        );
    }
}

/// Full-size acceptance run (paper scale, N = 2^20). ~512 MB of ancestor
/// bitsets for the fine graphs; run with `--release -- --ignored`.
#[test]
#[ignore = "large: run with --release -- --ignored"]
fn every_version_is_clean_at_paper_scale() {
    for version in all_versions() {
        let report = check_fft(&FftCheckOptions::new(20, version));
        assert!(
            !report.has_errors(),
            "{}:\n{}",
            version.name(),
            report.render_text()
        );
        assert!(report.races.is_clean(), "{}", version.name());
    }
    // And the motivating skew is visible at full scale too.
    let coarse = check_fft(&FftCheckOptions::new(20, SimVersion::Coarse));
    let row0 = &coarse.bank.hist[0];
    let peak = row0.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0;
    assert_eq!(peak, 0, "stage-0 peak bank at 2^20: {row0:?}");
    assert!(!coarse.bank_lint.is_empty());
}
