//! Workload-layer drift tests: the static decomposition in `fgfft::workload`
//! must describe *exactly* what every consumer does with it.
//!
//! Two identities, each over all five Table-I versions × both twiddle
//! layouts:
//!
//! 1. **Execution drift** — a host run through `Plan::execute_recorded`
//!    captures, per codelet, the element indices the hot path gathered and
//!    scattered and the twiddle values it multiplied by, straight from the
//!    materialized stage tables. Those observations must equal the workload
//!    layer's static footprint codelet-for-codelet: same data addresses in
//!    the same order, same twiddle addresses, bitwise the same twiddle
//!    values.
//! 2. **Bank accounting** — `fgcheck`'s whole-run static per-bank histogram
//!    (pure address algebra) must equal the per-bank access counts the
//!    `c64sim` memory system measures when it actually replays the schedule.
//!
//! Either identity breaking means the "single authority" has forked from a
//! consumer — precisely the bug class the workload refactor exists to
//! prevent.

use c64sim::{ChipConfig, SimOptions};
use codelet::runtime::Runtime;
use fgcheck::{check_fft, FftCheckOptions};
use fgfft::planner::{Plan, PlanKey};
use fgfft::simwork::run_sim_with_layout;
use fgfft::workload::{interleave, Region, SeedOrder, Version, Workload};
use fgfft::{Complex64, FftPlan, TwiddleLayout};

/// n_log2 = 12 gives 2 stages (exercising the guided small-plan fallback);
/// n_log2 = 13 gives 3 stages with a partial 1-level last stage (exercising
/// the guided early/late split and the partial-stage twiddle algebra).
const SIZES: [u32; 2] = [12, 13];
const LAYOUTS: [TwiddleLayout; 2] = [TwiddleLayout::Linear, TwiddleLayout::BitReversedHash];

fn versions() -> [Version; 5] {
    Version::paper_set(SeedOrder::Natural)
}

fn test_signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Complex64::new(
                (t * 37.0).sin() + 0.25 * (t * 101.0).cos(),
                0.5 * (t * 53.0).cos(),
            )
        })
        .collect()
}

#[test]
fn recorded_execution_matches_static_footprints() {
    let runtime = Runtime::with_workers(4);
    for n_log2 in SIZES {
        for layout in LAYOUTS {
            for version in versions() {
                let plan = Plan::build(PlanKey::new(1 << n_log2, version, layout));
                let workload = Workload::new(FftPlan::new(n_log2, 6), layout);
                let mut data = test_signal(1 << n_log2);
                let (_, records) = plan.execute_recorded(&mut data, &runtime);

                let ctx = format!("{} / {layout:?} / N=2^{n_log2}", version.name());
                assert_eq!(
                    records.len(),
                    workload.plan().total_codelets(),
                    "{ctx}: one record per codelet"
                );
                for (id, rec) in records.iter().enumerate() {
                    // Partition the static footprint by region, preserving
                    // the emit order within each.
                    let mut data_reads = Vec::new();
                    let mut data_writes = Vec::new();
                    let mut twiddle_reads = Vec::new();
                    workload.for_each_op(id, |op| match op.region {
                        Region::Data if op.range.write => data_writes.push(op.range.lo),
                        Region::Data => data_reads.push(op.range.lo),
                        Region::Twiddle => twiddle_reads.push(op.range.lo),
                        Region::Spill | Region::Scratch => {
                            panic!("{ctx}: 1D C2C codelets never spill or touch scratch")
                        }
                    });

                    let observed_reads: Vec<u64> = rec
                        .reads
                        .iter()
                        .map(|&e| workload.data_addr(e as usize))
                        .collect();
                    let observed_writes: Vec<u64> = rec
                        .writes
                        .iter()
                        .map(|&e| workload.data_addr(e as usize))
                        .collect();
                    assert_eq!(observed_reads, data_reads, "{ctx}: codelet {id} gathers");
                    assert_eq!(observed_writes, data_writes, "{ctx}: codelet {id} scatters");

                    // The static twiddle address stream, derived again from
                    // the index algebra (not from for_each_op), must agree.
                    let stage = workload.plan().stage_of(id);
                    let idx = workload.plan().idx_of(id);
                    let mut desc_twiddles = Vec::new();
                    fgfft::workload::for_each_twiddle_index(workload.plan(), stage, idx, |t| {
                        desc_twiddles.push(workload.twiddle_addr(t));
                    });
                    assert_eq!(
                        desc_twiddles, twiddle_reads,
                        "{ctx}: codelet {id} twiddle addresses"
                    );

                    // And the *values* the kernel actually multiplied by are
                    // bitwise the authority's per-butterfly twiddle run.
                    let mut expected = Vec::new();
                    fgfft::workload::append_twiddle_run(
                        workload.plan(),
                        plan.twiddles(),
                        stage,
                        idx,
                        &mut expected,
                    );
                    assert_eq!(
                        rec.twiddles.len(),
                        expected.len(),
                        "{ctx}: codelet {id} twiddle run length"
                    );
                    for (k, (got, want)) in rec.twiddles.iter().zip(&expected).enumerate() {
                        assert!(
                            got.re.to_bits() == want.re.to_bits()
                                && got.im.to_bits() == want.im.to_bits(),
                            "{ctx}: codelet {id} twiddle {k}: {got:?} != {want:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn static_bank_totals_equal_simulated_totals() {
    let chip = ChipConfig::cyclops64().with_thread_units(16);
    let options = SimOptions::default();
    for n_log2 in SIZES {
        let plan = FftPlan::new(n_log2, 6);
        for layout in LAYOUTS {
            for version in versions() {
                let report = check_fft(&FftCheckOptions {
                    layout: Some(layout),
                    ..FftCheckOptions::new(n_log2, version)
                });
                let banks = interleave().banks;
                let mut static_totals = vec![0u64; banks];
                for row in &report.bank.hist {
                    for (b, &c) in row.iter().enumerate() {
                        static_totals[b] += c;
                    }
                }
                let sim = run_sim_with_layout(plan, version, layout, &chip, &options);
                assert_eq!(
                    static_totals,
                    sim.bank_accesses,
                    "{} / {layout:?} / N=2^{n_log2}: static bank histogram \
                     must equal the measured access counts",
                    version.name()
                );
            }
        }
    }
}
