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
//! [`check_tiles`] takes the membership and the segments explicitly, so a
//! mutation test can break either; [`check_lowering`] runs it on a
//! [`TileProgram`] exactly as the planner builds it.

use crate::hb::{HbOrder, Segment, CODE_COVERAGE};
use crate::race::{find_races, RaceReport};
use c64sim::MemRange;
use codelet::graph::CodeletId;
use codelet::verify::{self, Diagnostic, Severity};
use fgfft::tiles::{TileProgram, TileSlice};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::CODE_RACE;
    use fgfft::workload::{ScheduleSpec, Workload};
    use fgfft::{FftPlan, SeedOrder, TwiddleLayout, Version};

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
