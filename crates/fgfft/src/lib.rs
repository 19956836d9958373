//! # fgfft — memory-load balanced fine-grain FFT
//!
//! A Rust reproduction of *"Towards Memory-Load Balanced Fast Fourier
//! Transformations in Fine-grain Execution Models"* (Chen, Wu, Zuckerman,
//! Gao — IPPS 2013): an iterative radix-2⁶ Cooley–Tukey FFT decomposed into
//! 64-point *codelets* whose execution order is scheduled — coarsely with
//! barriers, finely with dataflow counters, or finely with a heuristic
//! guidance — to balance traffic across interleaved DRAM banks.
//!
//! ## What's here
//!
//! * [`complex`], [`bitrev`], [`twiddle`] — arithmetic, the bit-reversal
//!   permutation/hash, and twiddle tables with linear or hashed layouts.
//! * [`plan`] — the stage/codelet index algebra: element ownership,
//!   parent/child formulas, shared dependence-counter groups, and the
//!   guided algorithm's grouped seeding order.
//! * [`workload`] — the single authority for the codelet decomposition:
//!   per-codelet descriptors (butterfly pattern, twiddle run, edges,
//!   shared-counter group), the exact byte-address footprint of every
//!   codelet under either twiddle layout, and the schedule each Table-I
//!   version runs ([`workload::ScheduleSpec`]). Every layer below consumes
//!   this module rather than re-deriving the structure.
//! * [`kernel`] — the 2^p-point butterfly work unit.
//! * [`graph`] — the FFT as a `codelet::CodeletProgram` (full, and the
//!   guided algorithm's early/late slices).
//! * [`exec`] — the execution vocabulary: the five algorithm versions of
//!   the paper's Table I, pool seed orders, [`ExecStats`], and the shared
//!   data view codelets run over.
//! * [`planner`] — execution plans ([`Plan`]: twiddles and
//!   the workload layer's schedule and tables materialized into flat
//!   arrays) and the wisdom-style single-flight plan cache ([`Planner`])
//!   that the `fgserve` serving layer builds on. A plan is the only way the
//!   host runs a transform: one buffer or a batch, every kind, one dispatch
//!   over its certified schedule.
//! * [`tiles`] — the host lowering: a plan's schedule quotiented onto tiles
//!   of consecutive codelets, which the runtime fires as single tasks.
//! * [`wisdom`] — persistent, machine-scoped autotuning results (FFTW-style
//!   wisdom): which pool order / guided split / runtime parameters the
//!   `fgtune` tuner measured fastest per [`PlanKey`], consulted by the
//!   planner when building plans.
//! * [`cert`] — schedule certificates: compact digests of a tuned schedule
//!   and its flattened tables that wisdom entries carry and the planner
//!   re-verifies before trusting a tuning on the `unsafe` hot path.
//! * [`backend`] — pluggable butterfly kernels over certified plans:
//!   [`HostScalar`] (the scalar reference path) and [`HostSimd`] (AVX2 /
//!   portable f64x4 butterflies, the default every library transform
//!   runs), selected per `(N, machine)` by wisdom via [`BackendSel`]. Threading is not a backend: the one scheduler,
//!   `codelet::runtime::Runtime`, runs every certified schedule on its
//!   worker count, with the calling thread as worker 0.
//! * [`simwork`] — the workload layer's footprints lowered to byte-addressed
//!   DRAM traffic for the `c64sim` Cyclops-64 simulator: this is where the
//!   paper's bank-level results are reproduced.
//! * [`model`] — the paper's analytic peak model (Eqs. 1–4: 10 GFLOPS).
//! * [`mod@reference`] — naive DFT / recursive FFT oracles.
//! * [`api`] — the high-level [`Fft`] engine, [`convolve`],
//!   [`power_spectrum`].
//!
//! ## Quick start
//!
//! ```
//! use fgfft::{forward, inverse, Complex64};
//!
//! let mut data: Vec<Complex64> = (0..4096)
//!     .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
//!     .collect();
//! let original = data.clone();
//! forward(&mut data);
//! inverse(&mut data);
//! assert!(fgfft::rms_error(&data, &original) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod backend;
pub mod bitrev;
pub mod bluestein;
pub mod cert;
pub mod complex;
pub mod exec;
pub mod fft2d;
pub mod graph;
pub mod kernel;
pub mod model;
pub mod plan;
pub mod planner;
pub mod reference;
pub mod rfft;
pub mod simwork;
pub mod stft;
pub mod tiles;
pub mod twiddle;
pub mod window;
pub mod wisdom;
pub mod workload;

pub use api::{convolve, forward, inverse, power_spectrum, Fft};
pub use backend::{Backend, BackendSel, Capabilities, HostScalar, HostSimd, PreparedPlan};
pub use bluestein::{dft, idft};
pub use cert::{CertError, Certificate, WORKLOAD_REVISION};
pub use complex::{rms_error, Complex64};
pub use exec::{ExecStats, SeedOrder, Version};
pub use fft2d::Fft2d;
pub use plan::FftPlan;
pub use planner::{Plan, PlanKey, Planner, PlannerStats};
pub use rfft::{irfft, rfft};
pub use simwork::{
    run_sim, run_sim_fine, run_sim_guided, run_sim_kind, run_sim_spec, FftWorkload, GuidedOptions,
    KindSim, Residence, SimVersion,
};
pub use stft::{spectrogram, stft, Spectrogram, StftConfig};
pub use twiddle::{TwiddleLayout, TwiddleTable};
pub use window::Window;
pub use wisdom::{machine_fingerprint, Wisdom, WisdomEntry, WisdomStatus};
pub use workload::{
    untangle_table, CodeletDesc, KindTaskClass, KindWorkload, ScheduleSpec, ScheduleTuning,
    TransformKind, Workload, DEFAULT_TRANSPOSE_BLOCK_LOG2,
};
