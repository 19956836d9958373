//! Execution vocabulary shared by every plan: the paper's five algorithm
//! versions, the pool seed orders, what one execution did, and the shared
//! data view the codelets run over. A [`crate::Plan`] is what actually runs
//! a transform, through the `codelet` runtime.
//!
//! | version | synchronization | twiddle layout |
//! |---------|-----------------|----------------|
//! | [`Version::Coarse`]     | barrier per stage (Alg. 1) | linear |
//! | [`Version::CoarseHash`] | barrier per stage | bit-reversal hashed |
//! | [`Version::Fine`]       | dataflow counters (Alg. 2) | linear |
//! | [`Version::FineHash`]   | dataflow counters | bit-reversal hashed |
//! | [`Version::FineGuided`] | two dataflow phases + 1 barrier (Alg. 3) | linear |
//!
//! All versions compute identical results (the codelet graph is
//! well-behaved, hence determinate); they differ in scheduling and in the
//! twiddle table's memory layout. On commodity hosts the layout has only
//! cache effects — the Cyclops-64 *bank* effects are reproduced by the
//! simulator workloads in [`crate::simwork`].

pub mod shared;

use codelet::stats::RunStats;
use std::time::Duration;

// The algorithm versions and pool seed orders are defined in the workload
// layer (the single authority for the decomposition) and re-exported here,
// where they have always been part of the executor API.
pub use crate::workload::{SeedOrder, Version};

/// What one execution did (beyond transforming the data).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Wall-clock time including bit reversal.
    pub elapsed: Duration,
    /// Runtime statistics per dataflow/barrier phase.
    pub phases: Vec<RunStats>,
    /// Stage barriers executed (coarse: one per stage; guided: 1; fine: 0).
    pub barriers: u64,
    /// The codelets fired (sanity: equals `plan.total_codelets()`).
    pub codelets: u64,
}

impl ExecStats {
    /// Fold the counts and phases of a later execution into this one (the
    /// elapsed time is the caller's to set).
    pub(crate) fn merge(&mut self, other: ExecStats) {
        self.codelets += other.codelets;
        self.barriers += other.barriers;
        self.phases.extend(other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{rms_error, Complex64};
    use crate::planner::{Plan, PlanKey};
    use crate::reference::recursive_fft;
    use codelet::runtime::Runtime;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.23).cos() * 0.5))
            .collect()
    }

    /// One transform through a freshly built plan for `version`.
    fn run(data: &mut [Complex64], version: Version, radix_log2: u32, workers: usize) -> ExecStats {
        let key = PlanKey::with_radix(data.len(), version, version.layout(), radix_log2);
        Plan::build(key).execute(data, &Runtime::with_workers(workers))
    }

    fn all_versions() -> Vec<Version> {
        vec![
            Version::Coarse,
            Version::CoarseHash,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Reversed),
            Version::Fine(SeedOrder::Random(42)),
            Version::FineHash(SeedOrder::Natural),
            Version::FineGuided,
        ]
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
