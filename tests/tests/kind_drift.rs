//! Per-kind drift tests: the composite decomposition in
//! `fgfft::workload::KindWorkload` must describe *exactly* what every
//! consumer does with it, for every non-C2C transform kind.
//!
//! The same two identities `workload_drift.rs` pins for the 1D complex
//! pipeline, re-proven over r2c, c2r, and 2D (square and rectangular):
//!
//! 1. **Execution drift** — `Plan::execute_recorded` captures, per
//!    composite task (inner codelets, untangle/tangle pairs, transpose
//!    tiles, c2r finalize spans), the element indices the hot path gathered
//!    and scattered. Mapped through `KindWorkload::element_addr`, those
//!    observations must equal the workload layer's static footprint
//!    task-for-task: same byte addresses in the same order, and one
//!    recorded twiddle value per static twiddle-region read.
//! 2. **Bank accounting** — `fgcheck`'s whole-run static per-bank
//!    histogram over the composite footprints must equal the per-bank
//!    access counts `c64sim` measures when `run_sim_kind` replays the
//!    barrier-phased composite schedule.
//!
//! Plus the real-kind table authority: the untangle factors a plan
//! precomputes must be bitwise the workload layer's `untangle_table`.

use c64sim::{ChipConfig, SimOptions};
use codelet::runtime::Runtime;
use fgcheck::{check_fft, FftCheckOptions};
use fgfft::planner::{Plan, PlanKey};
use fgfft::workload::{self, KindWorkload, Region, SeedOrder, TransformKind, Version, Workload};
use fgfft::{run_sim_kind, Complex64, TwiddleLayout};

const N_LOG2: u32 = 10;
const LAYOUTS: [TwiddleLayout; 2] = [TwiddleLayout::Linear, TwiddleLayout::BitReversedHash];
const ELEM: u64 = std::mem::size_of::<Complex64>() as u64;

/// The non-C2C kinds under test: both real directions, a square plane, and
/// a rectangular plane (rows ≠ cols exercises the asymmetric tile walk and
/// the distinct column plan).
fn kinds() -> [TransformKind; 4] {
    [
        TransformKind::R2C,
        TransformKind::C2R,
        TransformKind::C2C2D {
            rows_log2: 5,
            cols_log2: 5,
        },
        TransformKind::C2C2D {
            rows_log2: 4,
            cols_log2: 6,
        },
    ]
}

fn versions() -> [Version; 5] {
    Version::paper_set(SeedOrder::Natural)
}

fn test_signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let t = i as f64 / len as f64;
            Complex64::new(
                (t * 37.0).sin() + 0.25 * (t * 101.0).cos(),
                0.5 * (t * 53.0).cos(),
            )
        })
        .collect()
}

#[test]
fn recorded_kind_execution_matches_static_footprints() {
    let runtime = Runtime::with_workers(4);
    for kind in kinds() {
        for layout in LAYOUTS {
            for version in versions() {
                let key = PlanKey::with_kind(kind, 1 << N_LOG2, version, layout, 6);
                let plan = Plan::build(key);
                let kw = KindWorkload::new(kind, N_LOG2, key.radix_log2, layout);
                let mut data = test_signal(kw.buffer_len());
                let (_, records) = plan.execute_recorded(&mut data, &runtime);

                let ctx = format!("{kind:?} / {} / {layout:?}", version.name());
                assert_eq!(records.len(), kw.n_tasks(), "{ctx}: one record per task");

                // Mirror the documented composite task ordering so each
                // record can be decoded back to the wave codelet (and its
                // plan) whose stage table produced it.
                let t_in = kw.inner().plan().total_codelets();
                let radix = kw.inner().plan().radix();
                let n_pair = ((1usize << (N_LOG2 - 2)) + 1).div_ceil(radix);
                let untangle = workload::untangle_table(N_LOG2);

                for (id, rec) in records.iter().enumerate() {
                    // Partition the static footprint by access class, in
                    // emit order, expanded to element granularity (the
                    // transpose footprints are whole tile-row segments; the
                    // recorder reports individual elements).
                    let mut static_reads = Vec::new();
                    let mut static_writes = Vec::new();
                    let mut twiddle_addrs = Vec::new();
                    kw.for_each_op(id, |op| match op.region {
                        Region::Data | Region::Scratch => {
                            let out = if op.range.write {
                                &mut static_writes
                            } else {
                                &mut static_reads
                            };
                            out.extend((op.range.lo..op.range.hi).step_by(ELEM as usize));
                        }
                        Region::Twiddle => twiddle_addrs.push(op.range.lo),
                        Region::Spill => panic!("{ctx}: composite tasks never spill"),
                    });

                    let observed_reads: Vec<u64> = rec
                        .reads
                        .iter()
                        .map(|&e| kw.element_addr(e as usize))
                        .collect();
                    let observed_writes: Vec<u64> = rec
                        .writes
                        .iter()
                        .map(|&e| kw.element_addr(e as usize))
                        .collect();
                    assert_eq!(observed_reads, static_reads, "{ctx}: task {id} gathers");
                    assert_eq!(observed_writes, static_writes, "{ctx}: task {id} scatters");

                    let wave: Option<(&Workload, &Plan, usize)> = match kind {
                        TransformKind::R2C => (id < t_in).then_some((kw.inner(), &plan, id)),
                        TransformKind::C2R => (n_pair <= id && id < n_pair + t_in)
                            .then(|| (kw.inner(), &plan, id - n_pair)),
                        TransformKind::C2C2D {
                            rows_log2,
                            cols_log2,
                        } => {
                            let (rows, cols) = (1usize << rows_log2, 1usize << cols_log2);
                            let b = 1usize << kw.block_log2();
                            let tiles = (rows / b) * (cols / b);
                            let col_w = kw.col_inner().unwrap();
                            let col_p = plan.col_plan().unwrap();
                            let t_col = col_w.plan().total_codelets();
                            let row_end = rows * t_in;
                            let col_base = row_end + tiles;
                            let col_end = col_base + cols * t_col;
                            if id < row_end {
                                Some((kw.inner(), &plan, id % t_in))
                            } else if (col_base..col_end).contains(&id) {
                                Some((col_w, col_p, (id - col_base) % t_col))
                            } else {
                                None
                            }
                        }
                        TransformKind::C2C => unreachable!("kinds() is non-C2C"),
                    };
                    if let Some((w, p, local)) = wave {
                        // Inner-wave codelets multiply by the stage table's
                        // butterfly twiddle run — bitwise the authority's.
                        let fft = w.plan();
                        let mut expected = Vec::new();
                        fgfft::workload::append_twiddle_run(
                            fft,
                            p.twiddles(),
                            fft.stage_of(local),
                            fft.idx_of(local),
                            &mut expected,
                        );
                        assert_eq!(
                            rec.twiddles.len(),
                            expected.len(),
                            "{ctx}: task {id} twiddle run length"
                        );
                        for (k, (got, want)) in rec.twiddles.iter().zip(&expected).enumerate() {
                            assert!(
                                got.re.to_bits() == want.re.to_bits()
                                    && got.im.to_bits() == want.im.to_bits(),
                                "{ctx}: task {id} twiddle {k}: {got:?} != {want:?}"
                            );
                        }
                    } else {
                        // Pair tasks read one untangle factor per static
                        // twiddle read; tiles and finalize spans read none.
                        assert_eq!(
                            rec.twiddles.len(),
                            twiddle_addrs.len(),
                            "{ctx}: task {id} untangle factor count"
                        );
                        for (got, &addr) in rec.twiddles.iter().zip(&twiddle_addrs) {
                            let k = ((addr - kw.untangle_addr(0)) / ELEM) as usize;
                            let want = untangle[k];
                            assert!(
                                got.re.to_bits() == want.re.to_bits()
                                    && got.im.to_bits() == want.im.to_bits(),
                                "{ctx}: task {id} untangle factor {k}: {got:?} != {want:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn static_kind_bank_totals_equal_simulated_totals() {
    let chip = ChipConfig::cyclops64().with_thread_units(16);
    let options = SimOptions::default();
    // Composite footprints and phases are version-independent (the version
    // only reorders the inner wave), so one version suffices here.
    let version = Version::paper_set(SeedOrder::Natural)[1]; // CoarseHash, as the CLI sweep
    for kind in kinds() {
        for layout in LAYOUTS {
            let report = check_fft(&FftCheckOptions {
                layout: Some(layout),
                kind,
                ..FftCheckOptions::new(N_LOG2, version)
            });
            let banks = workload::interleave().banks;
            let mut static_totals = vec![0u64; banks];
            for row in &report.bank.hist {
                for (b, &c) in row.iter().enumerate() {
                    static_totals[b] += c;
                }
            }
            let key = PlanKey::with_kind(kind, 1 << N_LOG2, version, layout, 6);
            let sim = run_sim_kind(kind, N_LOG2, key.radix_log2, layout, &chip, &options);
            assert_eq!(
                static_totals, sim.bank_accesses,
                "{kind:?} / {layout:?}: static bank histogram must equal \
                 the measured access counts"
            );
        }
    }
}

#[test]
fn plan_untangle_tables_match_workload_authority() {
    for kind in [TransformKind::R2C, TransformKind::C2R] {
        for n_log2 in [4u32, N_LOG2, 13] {
            let key = PlanKey::with_kind(
                kind,
                1 << n_log2,
                Version::paper_set(SeedOrder::Natural)[0],
                TwiddleLayout::Linear,
                6,
            );
            let plan = Plan::build(key);
            let table = plan.untangle().expect("real plans carry the table");
            let authority = workload::untangle_table(n_log2);
            assert_eq!(table.len(), authority.len(), "{kind:?} N=2^{n_log2}");
            for (k, (got, want)) in table.iter().zip(&authority).enumerate() {
                assert!(
                    got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                    "{kind:?} N=2^{n_log2}: factor {k}: {got:?} != {want:?}"
                );
            }
        }
    }
}
