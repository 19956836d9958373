//! # fgtune — schedule/layout autotuning with persistent wisdom
//!
//! The paper's central measurement is that the *same* FFT arithmetic runs
//! at very different speeds depending on execution order: the spread
//! between the best and worst initial codelet-pool orders is the whole
//! point of its fine-grain versions. `fgtune` turns that observation into
//! a tool: it searches the schedule space the codebase already exposes —
//! pool orders, the guided algorithm's split point, twiddle layouts,
//! algorithm versions, butterfly kernels — and persists
//! the measured winners as [`fgfft::wisdom::Wisdom`] that the planner and
//! `fgserve` load at startup.
//!
//! The search is two-phase, cheapest first:
//!
//! 1. **Static pre-screen** ([`objective`]): every candidate schedule is
//!    checked by `fgcheck` (graph contract, races, per-bank pressure
//!    histograms) and simulated by `c64sim` (makespan, per-bank access
//!    rates). Candidates with contract errors are *rejected* — the tuner
//!    can never emit an invalid schedule — and candidates whose simulated
//!    makespan or bank imbalance is far off the best seen are *pruned*
//!    before costing any wall-clock measurement.
//! 2. **Measurement**: survivors run for real, one transform at a time on
//!    all cores (as the library and a default service run them),
//!    median-of-k wall time.
//!
//! The driver ([`search`]) mixes random exploration with a greedy
//! neighborhood walk (pairwise swaps on the pool order, split nudges,
//! backend toggles) around the best candidate so far, is fully
//! deterministic for a given `--seed`, and stops on a wall-clock budget.
//!
//! The space also covers *butterfly kernels* ([`fgfft::BackendSel`]): the
//! scalar hot path and the SIMD kernel — so wisdom learns scalar-vs-SIMD per
//! `(N, machine)`, not just the schedule.
//!
//! Crucially, *tuning never changes results*: a [`fgfft::ScheduleTuning`]
//! reorders execution of the same codelet DAG, and the DAG fixes the
//! arithmetic. A tuned plan is bit-identical to the seed plan — only
//! faster (or it loses the search).

#![warn(missing_docs)]

pub mod objective;
pub mod search;
pub mod space;

pub use objective::{measure_candidate, measure_prepared, prescreen, Gate, Screened, StaticScreen};
pub use search::{tune, Measured, TuneConfig, TuneOutcome, TuneReport};
pub use space::{Candidate, TuningSpace};
