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
    /// Runtime statistics per slice of the plan's tile program (each
    /// dataflow phase, or all barrier phases together), counted in
    /// codelets: a fired tile counts as its `T` member codelets.
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
