//! # fgcheck — static analysis for fine-grain codelet schedules
//!
//! The paper's fine-grain FFT versions trade the safety of stage barriers
//! for dataflow arcs; drop one arc and the program is silently racy, skew
//! the twiddle layout and every early stage hammers DRAM bank 0. Both bug
//! classes are *statically decidable* for the implicit codelet graphs this
//! workspace uses, so this crate decides them, before any cycle is
//! simulated:
//!
//! * **Pass 1 — graph contract** (`codelet::verify`, re-exported here):
//!   acyclicity, dependence-count/in-degree duality, reachability, shared
//!   counter group consistency. Codes FG001–FG008.
//! * **Pass 2 — happens-before races** ([`hb`], [`race`]): a schedule is
//!   modeled as barrier-separated [`hb::Segment`]s; tasks with overlapping
//!   footprints (at least one writing) that the model leaves unordered are
//!   reported as FG201 errors. Schedule-coverage holes are FG101. The
//!   same check runs again over the host lowering ([`tiles`]): the tile
//!   program `fgfft::Plan` actually fires, where a tile's footprint is the
//!   union of its member codelets'.
//! * **Pass 3 — bank pressure** ([`bank`]): per-stage per-bank histograms
//!   of every footprint under the Cyclops-64 interleave; a stage whose peak
//!   bank exceeds `threshold ×` the mean draws an FG301 warning. This is
//!   Fig. 1 of the paper as a lint.
//!
//! * **Pass 4 — flattened tables** ([`tables`]): the planner's FFTW-style
//!   per-stage gather/butterfly/twiddle tables — the second lowering the
//!   `unsafe` hot path streams without bounds checks — verified for
//!   bounds, per-stage disjointness, and byte-identity with the workload
//!   authority. Codes FG401–FG407, plus FG409 for composite-kind
//!   extension tables (real untangle factors, the 2D column plan).
//!
//! [`certify()`] seals a clean four-pass run into a portable
//! `fgfft::cert::Certificate` (FG408 on re-check failure) that `fgtune`
//! embeds in wisdom entries and the planner re-verifies before trusting.
//!
//! [`fft::check_fft`] wires the passes to the exact schedules that
//! `fgfft::simwork::run_sim` executes; the `fgcheck` binary exposes it on
//! the command line with text and JSON output.

#![warn(missing_docs)]

pub mod bank;
pub mod certify;
pub mod fft;
pub mod hb;
pub mod race;
pub mod tables;
pub mod tiles;

pub use bank::{BankPressure, CODE_BANK_IMBALANCE, DEFAULT_THRESHOLD};
pub use certify::{certify, check_certificate, CODE_CERT};
pub use codelet::verify::{has_errors, render, Diagnostic, Severity};
pub use fft::{check_fft, check_fft_tuned, layout_name, FftCheckOptions, FftCheckReport};
pub use hb::{HbOrder, Segment, CODE_COVERAGE};
pub use race::{find_races, RaceReport, CODE_RACE};
pub use tables::{
    check_kind_extensions, check_plan, check_plan_tables, CODE_BITREV_DRIFT, CODE_GATHER_BOUNDS,
    CODE_KIND_DRIFT, CODE_PAIR_BOUNDS, CODE_STAGE_ALIASING, CODE_TABLE_DRIFT, CODE_TABLE_SHAPE,
    CODE_TWIDDLE_DRIFT,
};
pub use tiles::{check_lowering, check_tiles, TileCheck};
