//! The two-phase objective: static pre-screen, then real measurement.
//!
//! Phase one never touches the executor. `fgcheck` proves the candidate
//! schedule is *valid* (graph contract, no races, full coverage) and
//! collects per-bank pressure histograms; `c64sim` replays the schedule's
//! byte-level DRAM traffic and yields a makespan and per-bank access
//! rates. Invalid schedules are rejected outright, and schedules whose
//! simulated cost is far off the best seen are pruned — both without
//! spending a single wall-clock sample. Phase two measures the survivors
//! for real: median-of-k wall time of one transform on all cores.

use crate::space::{Candidate, TuningSpace};
use c64sim::{ChipConfig, SimOptions};
use codelet::runtime::Runtime;
use fgcheck::{check_fft_tuned, FftCheckOptions};
use fgfft::run_sim_spec;
use fgfft::workload::ScheduleSpec;
use fgfft::{Complex64, Plan};
use fgsupport::bench::percentile;
use std::time::Instant;

/// Static costs of a candidate that passed the pre-screen.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticScreen {
    /// Simulated makespan on the C64 model, cycles.
    pub makespan_cycles: u64,
    /// Simulated peak/mean DRAM-bank access ratio (1.0 = perfectly even).
    pub bank_imbalance: f64,
    /// Worst per-level peak/mean ratio from `fgcheck`'s static histograms.
    pub static_imbalance: f64,
}

/// Pre-screen outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Screened {
    /// The schedule is invalid (contract violation, race, coverage hole) —
    /// never measured, never emitted.
    Rejected(String),
    /// Valid; static costs attached for pruning and reporting.
    Passed(StaticScreen),
}

/// Statically check and simulate `candidate` without running it.
pub fn prescreen(space: &TuningSpace, candidate: &Candidate) -> Screened {
    let mut opts = FftCheckOptions::new(space.n_log2, candidate.version);
    opts.radix_log2 = space.radix_log2;
    opts.kind = space.kind;
    opts.layout = Some(candidate.layout);
    // Pass 4 (plan-table verification) builds a full Plan per call — too
    // heavy for the in-loop prescreen. The search runs it once per *winner*
    // when it certifies the emitted wisdom entries.
    opts.check_tables = false;
    let report = check_fft_tuned(&opts, Some(&candidate.tuning));
    if report.has_errors() {
        let first = report
            .diagnostics()
            .into_iter()
            .find(|d| d.severity == codelet::verify::Severity::Error)
            .map(|d| format!("{}: {}", d.code, d.message))
            .unwrap_or_else(|| "static check error".to_string());
        return Screened::Rejected(first);
    }
    let static_imbalance = (0..report.bank.hist.len())
        .filter_map(|level| report.bank.imbalance(level))
        .fold(1.0f64, f64::max);

    let sim = if space.kind.is_c2c() {
        let plan = space.plan();
        let spec = ScheduleSpec::of_tuned(plan, candidate.version, Some(&candidate.tuning));
        run_sim_spec(
            plan,
            candidate.layout,
            &spec,
            &ChipConfig::default(),
            &SimOptions::default(),
        )
    } else {
        // Composite kinds replay the full barrier-phased schedule
        // (pack/untangle/transpose included); the pool-order override only
        // permutes the inner waves, which the coarse replay absorbs, so the
        // makespan is per-(kind, layout) rather than per-permutation.
        fgfft::run_sim_kind(
            space.kind,
            space.n_log2,
            space.plan().radix_log2(),
            candidate.layout,
            &ChipConfig::default(),
            &SimOptions::default(),
        )
    };
    Screened::Passed(StaticScreen {
        makespan_cycles: sim.makespan_cycles,
        bank_imbalance: sim.bank_imbalance(),
        static_imbalance,
    })
}

/// Prunes candidates whose *simulated* cost is far off the best seen, so
/// the expensive wall-clock phase only runs on plausible schedules.
///
/// The gate is relative, not absolute: the linear twiddle layout is
/// imbalanced by construction (the paper's Fig. 1), so an absolute
/// imbalance cap would blind the tuner to an entire region it must still
/// measure for the report's best-vs-worst spread. Instead a candidate is
/// pruned when its simulated makespan exceeds the best observed makespan
/// by more than `makespan_slack`, or its simulated bank imbalance exceeds
/// the worst *seed* imbalance by more than `imbalance_slack` — seeds
/// define what "as imbalanced as the stock system gets" means.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Admit candidates up to this factor over the best simulated makespan.
    pub makespan_slack: f64,
    /// Admit candidates up to this factor over the worst seed imbalance.
    pub imbalance_slack: f64,
    best_makespan: Option<u64>,
    worst_seed_imbalance: f64,
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl Gate {
    /// Gate with the default slacks (1.5× makespan, 1.25× imbalance).
    pub fn new() -> Self {
        Self {
            makespan_slack: 1.5,
            imbalance_slack: 1.25,
            best_makespan: None,
            worst_seed_imbalance: 1.0,
        }
    }

    /// Record a seed candidate's static costs: seeds are always measured,
    /// and they calibrate both bounds.
    pub fn observe_seed(&mut self, screen: &StaticScreen) {
        self.worst_seed_imbalance = self.worst_seed_imbalance.max(screen.bank_imbalance);
        self.observe(screen);
    }

    /// Record any admitted candidate's static costs (tightens the
    /// makespan bound as better schedules appear).
    pub fn observe(&mut self, screen: &StaticScreen) {
        self.best_makespan = Some(match self.best_makespan {
            None => screen.makespan_cycles,
            Some(best) => best.min(screen.makespan_cycles),
        });
    }

    /// Admit or prune. An admitted candidate's costs are observed.
    pub fn admit(&mut self, screen: &StaticScreen) -> Result<(), String> {
        if let Some(best) = self.best_makespan {
            let limit = best as f64 * self.makespan_slack;
            if screen.makespan_cycles as f64 > limit {
                return Err(format!(
                    "simulated makespan {} > {:.0} ({}× best)",
                    screen.makespan_cycles, limit, self.makespan_slack
                ));
            }
        }
        let imb_limit = self.worst_seed_imbalance * self.imbalance_slack;
        if screen.bank_imbalance > imb_limit {
            return Err(format!(
                "simulated bank imbalance {:.2} > {:.2}",
                screen.bank_imbalance, imb_limit
            ));
        }
        self.observe(screen);
        Ok(())
    }
}

/// Measure `candidate` on the real executor: median of `reps` wall-clock
/// samples of one transform on [`Runtime::default`] — all of the host's
/// cores, as `fgfft::Fft` and a default `fgserve` service run it.
///
/// The buffer is refilled from a pristine signal outside the timed region
/// each repetition, so the sample is execute-only. The plan is built here
/// (tuned), prepared by the candidate's backend, and both costs are
/// likewise untimed — services pay them once per key, not per transform.
pub fn measure_candidate(space: &TuningSpace, candidate: &Candidate, reps: usize) -> u64 {
    let key = candidate.key(space.kind, space.n_log2, space.radix_log2);
    let plan = std::sync::Arc::new(Plan::build_tuned(key, Some(&candidate.tuning)));
    measure_prepared(
        &candidate.backend.build().prepare(&plan),
        &Runtime::default(),
        reps,
    )
}

/// Median-of-`reps` wall time of one transform through a plan already
/// bound to a backend (see [`fgfft::Backend::prepare`]), nanoseconds.
pub fn measure_prepared(prepared: &fgfft::PreparedPlan, runtime: &Runtime, reps: usize) -> u64 {
    let pristine: Vec<Complex64> = (0..prepared.plan().buffer_len())
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.23).cos()))
        .collect();
    let mut buffer = pristine.clone();
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        buffer.copy_from_slice(&pristine);
        let start = Instant::now();
        prepared.execute(&mut buffer, runtime);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    percentile(&samples, 50.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgfft::exec::{SeedOrder, Version};
    use fgfft::ScheduleTuning;

    #[test]
    fn seed_candidates_pass_the_prescreen() {
        let space = TuningSpace::new(12, 6);
        for &version in &space.versions {
            let c = space.seed_candidate(version);
            match prescreen(&space, &c) {
                Screened::Passed(s) => {
                    assert!(s.makespan_cycles > 0);
                    assert!(s.bank_imbalance >= 1.0);
                }
                Screened::Rejected(why) => panic!("{}: {why}", c.describe()),
            }
        }
    }

    #[test]
    fn tuned_permutation_passes_and_measures() {
        let space = TuningSpace::new(10, 6);
        let cps = space.codelets_per_stage();
        let c = Candidate {
            version: Version::FineHash(SeedOrder::Natural),
            layout: fgfft::TwiddleLayout::BitReversedHash,
            tuning: ScheduleTuning {
                pool_order: Some((0..cps).rev().collect()),
                last_early: None,
                transpose_block_log2: None,
            },
            backend: fgfft::BackendSel::SIMD,
        };
        assert!(matches!(prescreen(&space, &c), Screened::Passed(_)));
        assert!(measure_candidate(&space, &c, 3) > 0);
    }

    #[test]
    fn gate_prunes_far_off_makespans() {
        let mut gate = Gate::new();
        let seed = StaticScreen {
            makespan_cycles: 1_000,
            bank_imbalance: 2.0,
            static_imbalance: 2.0,
        };
        gate.observe_seed(&seed);
        let near = StaticScreen {
            makespan_cycles: 1_400,
            ..seed.clone()
        };
        assert!(gate.admit(&near).is_ok());
        let far = StaticScreen {
            makespan_cycles: 2_000,
            ..seed.clone()
        };
        assert!(gate.admit(&far).is_err(), "2× best must be pruned");
        let skewed = StaticScreen {
            bank_imbalance: 4.0,
            ..seed
        };
        assert!(gate.admit(&skewed).is_err(), "imbalance blowup pruned");
    }
}
