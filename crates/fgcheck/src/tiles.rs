//! Pass 2 over the host lowering: the tile program a plan actually fires.
//!
//! `fgfft::Plan` does not hand the runtime its codelet schedule: it fires
//! the schedule's quotient onto tiles of consecutive codelets
//! ([`TileProgram`]), and each tile runs its members in id order through
//! the `unsafe` hot path. That is sound when
//!
//! * every codelet is a member of exactly one tile (else FG101);
//! * the tile schedule runs every tile exactly once (FG101, from
//!   [`HbOrder::build`]) and each dataflow slice honors the graph contract
//!   (pass 1's FG00x codes);
//! * no two tiles whose footprints conflict are left unordered (FG201). A
//!   tile's footprint is the union of its members' footprints.
//!
//! * the tile graph `TileProgram::lower` generates from the stage algebra
//!   is, array for array, the quotient of the schedule's codelet programs
//!   — dependence counts, child order and seeds — so it fires in the
//!   order the quotient would (FG102, [`check_generated`] against the
//!   oracle `quotient_slices`).
//!
//! [`check_tiles`] takes the membership and the segments explicitly, so a
//! mutation test can break either; [`check_lowering`] runs it on a
//! [`TileProgram`] exactly as the planner builds it, and [`check_host`]
//! lowers a schedule and runs both checks.

use crate::hb::{HbOrder, Segment, CODE_COVERAGE};
use crate::race::{find_races, RaceReport};
use c64sim::MemRange;
use codelet::graph::{quotient_order, CodeletId, CodeletProgram, CsrProgram};
use codelet::verify::{self, Diagnostic, Severity};
use fgfft::tiles::{tile_log2, TileProgram, TileSlice};
use fgfft::workload::ScheduleSpec;
use fgfft::FftPlan;

/// A generated tile graph differs from the quotient of its schedule.
pub const CODE_TILE_DRIFT: &str = "FG102";

/// The result of the tile pass over one lowering.
pub struct TileCheck {
    /// Number of tiles checked.
    pub tiles: usize,
    /// Membership and tile-coverage findings (FG101) and, from
    /// [`check_lowering`], the tile slices' graph-contract findings.
    pub contract: Vec<Diagnostic>,
    /// The tile schedule's happens-before order (tasks are tiles).
    pub hb: HbOrder,
    /// Races between tiles.
    pub races: RaceReport,
}

impl TileCheck {
    /// Every finding, contract first.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = self.contract.clone();
        out.extend(self.races.diagnostics());
        out
    }
}

/// Explicit membership of a lowering: `members[t]` lists the codelets tile
/// `t` runs, in run order.
pub fn members(program: &TileProgram) -> Vec<Vec<CodeletId>> {
    (0..program.num_tiles())
        .map(|t| program.members(t).collect())
        .collect()
}

/// The lowering's slices as happens-before segments over tile ids.
pub fn segments(program: &TileProgram) -> Vec<Segment<'_>> {
    program
        .slices()
        .iter()
        .map(|slice| match slice {
            TileSlice::Phased(phases) => Segment::Stages(phases.clone()),
            TileSlice::Dataflow { program, seeds, .. } => Segment::Graph {
                program,
                seeds: seeds.clone(),
            },
        })
        .collect()
}

/// Check a tile schedule over `n_codelets` codelets: membership coverage,
/// tile coverage, and races between tiles whose footprint is the union of
/// their members' `footprint`s.
pub fn check_tiles(
    n_codelets: usize,
    members: &[Vec<CodeletId>],
    segments: &[Segment<'_>],
    footprint: impl Fn(CodeletId) -> Vec<MemRange>,
) -> TileCheck {
    let mut contract = Vec::new();
    let mut coverage = |codelet, message| {
        contract.push(Diagnostic {
            code: CODE_COVERAGE,
            severity: Severity::Error,
            codelet,
            message,
        })
    };
    let mut owner: Vec<Option<usize>> = vec![None; n_codelets];
    for (t, ms) in members.iter().enumerate() {
        for &c in ms {
            match owner.get(c) {
                None => coverage(
                    None,
                    format!("tile {t} lists codelet {c}, outside 0..{n_codelets}"),
                ),
                Some(Some(first)) => coverage(
                    Some(c),
                    format!("codelet {c} is a member of tiles {first} and {t}"),
                ),
                Some(None) => owner[c] = Some(t),
            }
        }
    }
    for (c, _) in owner.iter().enumerate().filter(|(_, o)| o.is_none()) {
        coverage(Some(c), format!("codelet {c} is a member of no tile"));
    }
    let (hb, tile_coverage) = HbOrder::build(members.len(), segments);
    contract.extend(tile_coverage);
    let races = find_races(
        members.len(),
        |t| {
            members[t]
                .iter()
                .filter(|&&c| c < n_codelets)
                .flat_map(|&c| footprint(c))
                .collect()
        },
        &hb,
    );
    TileCheck {
        tiles: members.len(),
        contract,
        hb,
        races,
    }
}

/// Run the tile pass on `program`, the lowering of a schedule over
/// `n_codelets` codelets: each dataflow slice's graph contract, then
/// [`check_tiles`] on its own membership and segments.
pub fn check_lowering(
    program: &TileProgram,
    n_codelets: usize,
    footprint: impl Fn(CodeletId) -> Vec<MemRange>,
) -> TileCheck {
    let mut check = check_tiles(n_codelets, &members(program), &segments(program), footprint);
    for slice in program.slices() {
        if let TileSlice::Dataflow {
            program,
            seeds,
            expected,
        } = slice
        {
            check
                .contract
                .extend(verify::check_partial(program, seeds, *expected));
        }
    }
    check
}

/// The oracle of the host lowering: `spec`'s slices quotiented onto the
/// tiles of [`tile_log2`]`(fft)` codelet edge by codelet edge —
/// [`CsrProgram::quotient`] of each dataflow program, [`quotient_order`]
/// of each phase and seed list.
fn quotient_slices(fft: &FftPlan, spec: &ScheduleSpec) -> Vec<TileSlice> {
    let tile_log2 = tile_log2(fft);
    let dataflow =
        |program: &dyn CodeletProgram, seeds: &[CodeletId], expected: usize| TileSlice::Dataflow {
            program: CsrProgram::quotient(program, tile_log2),
            seeds: quotient_order(seeds, tile_log2),
            expected: expected >> tile_log2,
        };
    match spec {
        ScheduleSpec::Phased { phases } => vec![TileSlice::Phased(
            phases
                .iter()
                .map(|p| quotient_order(p, tile_log2))
                .collect(),
        )],
        ScheduleSpec::Fine { graph, seeds } => vec![dataflow(graph, seeds, fft.total_codelets())],
        ScheduleSpec::Guided {
            early,
            early_seeds,
            late,
            late_seeds,
        } => vec![
            dataflow(early, early_seeds, early.expected()),
            dataflow(late, late_seeds, late.expected()),
        ],
    }
}

/// FG102 — require `slices`, a lowering of `spec` over `fft`'s codelets,
/// to equal the oracle — `spec` quotiented codelet edge by codelet edge
/// with [`CsrProgram::quotient`] — array for array: the same slice kinds,
/// phases, seeds and tile counts, and in each dataflow slice the same
/// dependence count and children (in order) for every tile and the same
/// program seeds. One diagnostic per slice, at the first differing tile.
pub fn check_generated(
    fft: &FftPlan,
    spec: &ScheduleSpec,
    slices: &[TileSlice],
) -> Vec<Diagnostic> {
    let oracle = quotient_slices(fft, spec);
    let drift = |slice: usize, tile: Option<usize>, what: String| Diagnostic {
        code: CODE_TILE_DRIFT,
        severity: Severity::Error,
        codelet: tile,
        message: format!(
            "tile slice {slice}: {what} — the generated tile graph has drifted from the \
             quotient of its schedule"
        ),
    };
    if slices.len() != oracle.len() {
        return vec![drift(
            0,
            None,
            format!("{} slices, the quotient has {}", slices.len(), oracle.len()),
        )];
    }
    let mut out = Vec::new();
    for (i, (got, want)) in slices.iter().zip(&oracle).enumerate() {
        match (got, want) {
            (TileSlice::Phased(got), TileSlice::Phased(want)) => {
                if got != want {
                    out.push(drift(i, None, "barrier phases differ".to_string()));
                }
            }
            (
                TileSlice::Dataflow {
                    program,
                    seeds,
                    expected,
                },
                TileSlice::Dataflow {
                    program: q,
                    seeds: q_seeds,
                    expected: q_expected,
                },
            ) => {
                if (seeds, expected) != (q_seeds, q_expected) {
                    out.push(drift(
                        i,
                        None,
                        format!(
                            "{expected} tiles from seeds {seeds:?}, the quotient fires \
                             {q_expected} from {q_seeds:?}"
                        ),
                    ));
                } else if program.num_codelets() != q.num_codelets() {
                    out.push(drift(
                        i,
                        None,
                        format!(
                            "{} tiles, the quotient has {}",
                            program.num_codelets(),
                            q.num_codelets()
                        ),
                    ));
                } else if let Some(t) = (0..q.num_codelets()).find(|&t| {
                    program.dep_count(t) != q.dep_count(t) || program.children(t) != q.children(t)
                }) {
                    out.push(drift(
                        i,
                        Some(t),
                        format!(
                            "tile {t} waits for {} parents and signals {:?}; the quotient \
                             waits for {} and signals {:?}",
                            program.dep_count(t),
                            program.children(t),
                            q.dep_count(t),
                            q.children(t)
                        ),
                    ));
                } else if program.seeds() != q.seeds() {
                    out.push(drift(
                        i,
                        None,
                        format!(
                            "program seeds {:?}, the quotient's {:?}",
                            program.seeds(),
                            q.seeds()
                        ),
                    ));
                }
            }
            _ => out.push(drift(i, None, "slice kind differs".to_string())),
        }
    }
    out
}

/// Pass 2 over the host lowering of `spec`: lower it as the planner does,
/// check the generated tile graph against the quotient oracle
/// ([`check_generated`]) and run [`check_lowering`] on it.
pub fn check_host(
    fft: &FftPlan,
    spec: &ScheduleSpec,
    footprint: impl Fn(CodeletId) -> Vec<MemRange>,
) -> TileCheck {
    let lowered = TileProgram::lower(fft, spec);
    let mut check = check_lowering(&lowered, fft.total_codelets(), footprint);
    check
        .contract
        .extend(check_generated(fft, spec, lowered.slices()));
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::CODE_RACE;
    use fgfft::plan::MAX_RADIX_LOG2;
    use fgfft::workload::{ScheduleTuning, Workload};
    use fgfft::{SeedOrder, TwiddleLayout, Version};

    fn lowering(n_log2: u32, version: Version) -> (FftPlan, TileProgram) {
        let fft = FftPlan::new(n_log2, 6);
        let spec = ScheduleSpec::of(fft, version);
        (fft, TileProgram::lower(&fft, &spec))
    }

    #[test]
    fn every_version_lowers_race_free() {
        for version in Version::paper_set(SeedOrder::Reversed) {
            let (fft, tiles) = lowering(13, version);
            let workload = Workload::new(fft, version.layout());
            let check = check_lowering(&tiles, fft.total_codelets(), |c| workload.footprint(c));
            assert_eq!(check.tiles, tiles.num_tiles());
            assert!(
                check.diagnostics().is_empty(),
                "{}: {}",
                version.name(),
                verify::render(&check.diagnostics())
            );
        }
    }

    /// The schedules a plan of `fft` can lower: every version, the guided
    /// barrier at every tuned position, and a permuted pool order.
    fn specs(fft: FftPlan) -> Vec<ScheduleSpec> {
        let mut specs: Vec<ScheduleSpec> = Version::paper_set(SeedOrder::Reversed)
            .into_iter()
            .chain([Version::Fine(SeedOrder::Random(3))])
            .map(|v| ScheduleSpec::of(fft, v))
            .collect();
        // Odd multipliers permute the power-of-two stage.
        let cps = fft.codelets_per_stage();
        let permuted: Vec<usize> = (0..cps).map(|i| (i * 5 + 3) % cps).collect();
        for last_early in (0..fft.stages().saturating_sub(1)).map(Some).chain([None]) {
            let tuning = ScheduleTuning {
                pool_order: Some(permuted.clone()),
                last_early,
                transpose_block_log2: None,
            };
            for version in [
                Version::FineGuided,
                Version::Coarse,
                Version::Fine(SeedOrder::Natural),
            ] {
                specs.push(ScheduleSpec::of_tuned(fft, version, Some(&tuning)));
            }
        }
        specs
    }

    /// The generated tile graph is the quotient, array for array, for
    /// every codelet radix 2^1..2^7 — one stage, partial last stages,
    /// tiles of one codelet and full `P × P` blocks — up to 2^20 points,
    /// every version, every tuned guided barrier and a permuted pool
    /// order.
    #[test]
    fn generated_tile_graphs_equal_the_quotient() {
        let mut tile_lens = std::collections::BTreeSet::new();
        for radix_log2 in 1..=MAX_RADIX_LOG2 {
            let top = match radix_log2 {
                1 | 2 => 13,
                3 | 4 => 16,
                _ => 20,
            };
            let sizes = (radix_log2..=3 * radix_log2 + 1)
                .filter(|&n| n <= top)
                .chain([top]);
            for n_log2 in sizes.collect::<std::collections::BTreeSet<_>>() {
                let fft = FftPlan::new(n_log2, radix_log2);
                tile_lens.insert(tile_log2(&fft));
                for spec in specs(fft) {
                    let lowered = TileProgram::lower(&fft, &spec);
                    let diags = check_generated(&fft, &spec, lowered.slices());
                    assert!(
                        diags.is_empty(),
                        "2^{n_log2} radix 2^{radix_log2}: {}",
                        verify::render(&diags)
                    );
                }
            }
        }
        assert!(
            tile_lens.contains(&0) && tile_lens.contains(&7),
            "{tile_lens:?}"
        );
    }

    /// A generated tile graph with one edge dropped, one edge added or
    /// one dependence count off by one draws FG102 at that tile.
    #[test]
    fn mutated_tile_graphs_draw_fg102() {
        let fft = FftPlan::new(12, 3);
        let spec = ScheduleSpec::of(fft, Version::FineGuided);
        let lowered = TileProgram::lower(&fft, &spec);
        let slices = lowered.slices();
        assert!(check_generated(&fft, &spec, slices).is_empty());
        let TileSlice::Dataflow {
            program,
            seeds,
            expected,
        } = &slices[0]
        else {
            panic!("guided lowers to dataflow slices");
        };
        let tiles = program.num_codelets();
        // The slice's dependence counts and child lists, to mutate.
        let parts = || {
            let deps: Vec<u32> = (0..tiles).map(|t| program.dep_count(t)).collect();
            let children: Vec<Vec<u32>> =
                (0..tiles).map(|t| program.children(t).to_vec()).collect();
            (deps, children)
        };
        let check = |deps: Vec<u32>, children: Vec<Vec<u32>>| {
            let mut offsets = vec![0u32];
            for c in &children {
                offsets.push(offsets[offsets.len() - 1] + c.len() as u32);
            }
            let mut mutated = slices.to_vec();
            mutated[0] = TileSlice::Dataflow {
                program: CsrProgram::from_parts(
                    deps,
                    offsets,
                    children.concat(),
                    program.seeds().to_vec(),
                ),
                seeds: seeds.clone(),
                expected: *expected,
            };
            check_generated(&fft, &spec, &mutated)
                .iter()
                .map(|d| (d.code, d.codelet))
                .collect::<Vec<_>>()
        };
        let (deps, mut children) = parts();
        children[3].pop();
        assert_eq!(check(deps, children), [(CODE_TILE_DRIFT, Some(3))]);
        let (deps, mut children) = parts();
        children[5].push(0);
        assert_eq!(check(deps, children), [(CODE_TILE_DRIFT, Some(5))]);
        let (mut deps, children) = parts();
        let first_child = program.children(0)[0] as usize;
        deps[first_child] += 1;
        assert_eq!(
            check(deps, children),
            [(CODE_TILE_DRIFT, Some(first_child))]
        );
    }

    #[test]
    fn one_phase_for_all_tiles_races() {
        let (fft, tiles) = lowering(12, Version::Coarse);
        let workload = Workload::new(fft, TwiddleLayout::Linear);
        let all = vec![Segment::Stages(vec![(0..tiles.num_tiles()).collect()])];
        let check = check_tiles(fft.total_codelets(), &members(&tiles), &all, |c| {
            workload.footprint(c)
        });
        assert!(check.contract.is_empty());
        assert!(check
            .races
            .diagnostics()
            .iter()
            .all(|d| d.code == CODE_RACE));
        assert!(!check.races.is_clean());
    }
}
