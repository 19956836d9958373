//! The FFT driver: run all three passes against one algorithm version.
//!
//! [`check_fft`] takes the schedule and the per-codelet footprints straight
//! from `fgfft`'s workload layer — the *same* [`ScheduleSpec`] (graphs,
//! seeds, phase structure, small-plan guided fallback) that
//! `fgfft::simwork::run_sim` executes and `fgfft::planner::Plan`
//! materializes, and the same byte addresses the simulator replays — and
//! checks it without running it:
//!
//! 1. the graph contract (`codelet::verify`, codes FG001–FG008),
//! 2. happens-before races over task footprints (FG101/FG201), on the
//!    codelet schedule and again on its host lowering — the tiles
//!    `Plan::execute` fires ([`crate::tiles`]),
//! 3. bank-pressure imbalance under the C64 interleave (FG301).
//!
//! A report is *clean* when it contains no errors; bank-pressure findings
//! are warnings (slow, not wrong), so the linear-twiddle versions are clean
//! yet loudly flagged — the static shadow of the paper's Fig. 1.

use crate::bank::BankPressure;
use crate::hb::{HbOrder, Segment};
use crate::race::{find_races, RaceReport};
use crate::tables;
use crate::tiles::{self, TileCheck};
use codelet::verify::{self, Diagnostic};
use fgfft::cert::{self, Digest};
use fgfft::graph::FftGraph;
use fgfft::planner::PlanKey;
use fgfft::workload::{self, KindWorkload, ScheduleSpec, TransformKind, Workload};
use fgfft::{FftPlan, Plan, SimVersion, TwiddleLayout};
use fgsupport::json::Value;

/// What to check.
#[derive(Debug, Clone, Copy)]
pub struct FftCheckOptions {
    /// Problem size exponent (N = 2^n_log2).
    pub n_log2: u32,
    /// Codelet radix exponent (64-point codelets = 6, the paper's choice).
    pub radix_log2: u32,
    /// Transform kind to check. `C2C` runs the classic single-wave passes;
    /// real and 2D kinds check the composite barrier-phase schedule from
    /// [`KindWorkload`] (pack/untangle/transpose stages included).
    pub kind: TransformKind,
    /// Algorithm version whose schedule to check.
    pub version: SimVersion,
    /// Twiddle layout override; `None` uses the version's own layout.
    pub layout: Option<TwiddleLayout>,
    /// Bank-pressure lint threshold (peak/mean).
    pub threshold: f64,
    /// Run pass 4 (build the [`Plan`] and verify its flattened tables).
    /// On by default; the tuner's in-loop prescreen turns it off and runs
    /// it once, at certification time, on the winning schedule only.
    pub check_tables: bool,
}

impl FftCheckOptions {
    /// Defaults matching the paper's setup for `version` at `N = 2^n_log2`.
    pub fn new(n_log2: u32, version: SimVersion) -> Self {
        Self {
            n_log2,
            radix_log2: 6,
            kind: TransformKind::C2C,
            version,
            layout: None,
            threshold: crate::bank::DEFAULT_THRESHOLD,
            check_tables: true,
        }
    }

    /// The plan identity these options check.
    pub fn plan_key(&self) -> PlanKey {
        let layout = self.layout.unwrap_or_else(|| self.version.layout());
        PlanKey::with_kind(
            self.kind,
            1usize << self.n_log2,
            self.version,
            layout,
            self.radix_log2,
        )
    }
}

/// The combined result of the three passes over one schedule.
pub struct FftCheckReport {
    /// Version legend name (paper Table I).
    pub version: &'static str,
    /// Transform kind the schedule computes.
    pub kind: TransformKind,
    /// Twiddle layout actually checked.
    pub layout: TwiddleLayout,
    /// Problem size exponent.
    pub n_log2: u32,
    /// Total codelets in the schedule.
    pub tasks: usize,
    /// Pass-1 graph-contract diagnostics plus schedule-coverage findings.
    pub contract: Vec<Diagnostic>,
    /// Pass-2 race scan.
    pub races: RaceReport,
    /// Pass 2 over the host lowering: the schedule quotiented onto the
    /// tiles `Plan` fires (one check per inner complex wave).
    pub host: Vec<TileCheck>,
    /// Pass-3 histograms (kept for reporting; per-level imbalance).
    pub bank: BankPressure,
    /// Pass-3 lint findings (warnings).
    pub bank_lint: Vec<Diagnostic>,
    /// Pass-4 flattened-table findings (empty when `check_tables` was off).
    pub tables: Vec<Diagnostic>,
    /// Whether pass 4 ran (a clean `tables` list means nothing otherwise).
    pub tables_checked: bool,
    /// Digest of the happens-before cover pass 2 established (per-task
    /// level assignment) — the certificate's HB witness.
    pub hb_witness: u64,
    /// [`cert::schedule_digest`] of the checked `(key, tuning)`.
    pub schedule_digest: u64,
    /// [`cert::table_digest`] of the built plan (0 when pass 4 was off).
    pub table_digest: u64,
    /// Worst per-level bank peak/mean ratio, in thousandths — the
    /// certificate's bank bound.
    pub bank_bound_milli: u64,
}

impl FftCheckReport {
    /// Every diagnostic from every pass, contract first.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = self.contract.clone();
        out.extend(self.races.diagnostics());
        for host in &self.host {
            out.extend(host.diagnostics());
        }
        out.extend(self.tables.iter().cloned());
        out.extend(self.bank_lint.iter().cloned());
        out
    }

    /// True when some pass found an error (warnings do not count).
    pub fn has_errors(&self) -> bool {
        verify::has_errors(&self.diagnostics())
    }

    /// Human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fgcheck: {} / {} layout, kind {}, N = 2^{} ({} codelets)\n",
            self.version,
            layout_name(self.layout),
            self.kind.as_string(),
            self.n_log2,
            self.tasks
        );
        out.push_str(&format!(
            "  contract: {}\n",
            if verify::has_errors(&self.contract) {
                "VIOLATED"
            } else {
                "ok"
            }
        ));
        out.push_str(&format!(
            "  races: {} ({} pair checks)\n",
            if self.races.is_clean() {
                "none".to_string()
            } else {
                format!("{} racing pairs", self.races.total)
            },
            self.races.checked
        ));
        for host in &self.host {
            out.push_str(&format!(
                "  host tiles: {} tiles, races: {}\n",
                host.tiles,
                if host.races.is_clean() {
                    "none".to_string()
                } else {
                    format!("{} racing pairs", host.races.total)
                }
            ));
        }
        let imb: Vec<String> = (0..self.bank.hist.len())
            .map(|l| match self.bank.imbalance(l) {
                Some(r) => format!("{r:.2}"),
                None => "-".to_string(),
            })
            .collect();
        out.push_str(&format!(
            "  tables: {}\n",
            if !self.tables_checked {
                "skipped".to_string()
            } else if verify::has_errors(&self.tables) {
                "VIOLATED".to_string()
            } else {
                format!("ok (digest {:016x})", self.table_digest)
            }
        ));
        out.push_str(&format!(
            "  bank pressure: per-level peak/mean [{}], {} warning(s)\n",
            imb.join(", "),
            self.bank_lint.len()
        ));
        let diags = self.diagnostics();
        if !diags.is_empty() {
            out.push_str(&verify::render(&diags));
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Value {
        let diag_json = |d: &Diagnostic| {
            Value::obj(vec![
                ("code", Value::Str(d.code.to_string())),
                ("severity", Value::Str(d.severity.to_string())),
                (
                    "codelet",
                    d.codelet.map_or(Value::Null, |c| Value::Num(c as f64)),
                ),
                ("message", Value::Str(d.message.clone())),
            ])
        };
        let hist = Value::Arr(
            self.bank
                .hist
                .iter()
                .map(|row| Value::Arr(row.iter().map(|&c| Value::Num(c as f64)).collect()))
                .collect(),
        );
        let imbalance = Value::Arr(
            (0..self.bank.hist.len())
                .map(|l| self.bank.imbalance(l).map_or(Value::Null, Value::Num))
                .collect(),
        );
        Value::obj(vec![
            ("version", Value::Str(self.version.to_string())),
            ("kind", Value::Str(self.kind.as_string())),
            ("layout", Value::Str(layout_name(self.layout).to_string())),
            ("n_log2", Value::Num(self.n_log2 as f64)),
            ("tasks", Value::Num(self.tasks as f64)),
            ("clean", Value::Bool(!self.has_errors())),
            (
                "diagnostics",
                Value::Arr(self.diagnostics().iter().map(diag_json).collect()),
            ),
            (
                "races",
                Value::obj(vec![
                    ("total", Value::Num(self.races.total as f64)),
                    ("checked", Value::Num(self.races.checked as f64)),
                ]),
            ),
            (
                "host",
                Value::Arr(
                    self.host
                        .iter()
                        .map(|h| {
                            Value::obj(vec![
                                ("tiles", Value::Num(h.tiles as f64)),
                                ("races", Value::Num(h.races.total as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "bank",
                Value::obj(vec![("histogram", hist), ("imbalance", imbalance)]),
            ),
            (
                "certificate",
                Value::obj(vec![
                    ("tables_checked", Value::Bool(self.tables_checked)),
                    (
                        "schedule_digest",
                        Value::Str(format!("{:016x}", self.schedule_digest)),
                    ),
                    (
                        "table_digest",
                        Value::Str(format!("{:016x}", self.table_digest)),
                    ),
                    (
                        "hb_witness",
                        Value::Str(format!("{:016x}", self.hb_witness)),
                    ),
                    ("bank_bound_milli", Value::Num(self.bank_bound_milli as f64)),
                ]),
            ),
        ])
    }
}

/// Stable CLI-facing layout name.
pub fn layout_name(layout: TwiddleLayout) -> &'static str {
    match layout {
        TwiddleLayout::Linear => "linear",
        TwiddleLayout::BitReversedHash => "bitrev-hash",
        TwiddleLayout::MultiplicativeHash => "mult-hash",
    }
}

/// Statically check the schedule of `opts.version` without simulating it.
pub fn check_fft(opts: &FftCheckOptions) -> FftCheckReport {
    check_fft_tuned(opts, None)
}

/// As [`check_fft`], with the autotuner's schedule overrides applied — the
/// in-loop gate of the `fgtune` search: every candidate pool order / guided
/// split must pass all three passes before it is ever measured, so the
/// tuner can never emit a schedule that violates the graph contract or
/// races.
pub fn check_fft_tuned(
    opts: &FftCheckOptions,
    tuning: Option<&fgfft::workload::ScheduleTuning>,
) -> FftCheckReport {
    if !opts.kind.is_c2c() {
        return check_fft_kind(opts, tuning);
    }
    let plan = FftPlan::new(opts.n_log2, opts.radix_log2);
    let layout = opts.layout.unwrap_or_else(|| opts.version.layout());
    let workload = Workload::new(plan, layout);
    let n_tasks = plan.total_codelets();

    // The one schedule every consumer agrees on: the workload layer's spec.
    let spec = ScheduleSpec::of_tuned(plan, opts.version, tuning);
    let (mut contract, hb, coverage) = match &spec {
        ScheduleSpec::Phased { phases } => {
            // The phased schedule still has to respect the dependence
            // structure; verify the full graph's contract.
            let graph = FftGraph::new(plan);
            let contract = verify::check_program(&graph);
            let (hb, cov) = HbOrder::build(n_tasks, &[Segment::Stages(phases.clone())]);
            (contract, hb, cov)
        }
        ScheduleSpec::Fine { graph, seeds } => {
            let contract = verify::check_partial(graph, seeds, n_tasks);
            let (hb, cov) = HbOrder::build(
                n_tasks,
                &[Segment::Graph {
                    program: graph,
                    seeds: seeds.clone(),
                }],
            );
            (contract, hb, cov)
        }
        ScheduleSpec::Guided {
            early,
            early_seeds,
            late,
            late_seeds,
        } => {
            let mut contract = verify::check_partial(early, early_seeds, early.expected());
            contract.extend(verify::check_partial(late, late_seeds, late.expected()));
            let (hb, cov) = HbOrder::build(
                n_tasks,
                &[
                    Segment::Graph {
                        program: early,
                        seeds: early_seeds.clone(),
                    },
                    Segment::Graph {
                        program: late,
                        seeds: late_seeds.clone(),
                    },
                ],
            );
            (contract, hb, cov)
        }
    };
    contract.extend(coverage);

    let races = find_races(n_tasks, |t| workload.footprint(t), &hb);
    let host = vec![tiles::check_host(&plan, &spec, |t| workload.footprint(t))];
    let bank = BankPressure::collect(
        n_tasks,
        |t| workload.footprint(t),
        &hb,
        workload::interleave(),
    );
    let bank_lint = bank.lint(opts.threshold);

    // Certificate ingredients. The HB witness digests the level covers pass
    // 2 established; the bank bound is pass 3's worst per-level ratio.
    let hb_witness = hb_witness(n_tasks, &hb, &host);
    let bank_bound_milli = (0..bank.hist.len())
        .filter_map(|l| bank.imbalance(l))
        .fold(0u64, |acc, r| acc.max((r * 1000.0).ceil() as u64));
    let key = opts.plan_key();
    let schedule_digest =
        cert::schedule_digest(key, tuning).expect("of_tuned already validated the tuning");

    // Pass 4: build the plan this (key, tuning) lowers to and verify its
    // flattened tables against bounds, disjointness, and the authority.
    let (tables, table_digest) = if opts.check_tables {
        let built = Plan::build_tuned(key, tuning);
        (tables::check_plan(&built), cert::table_digest(&built))
    } else {
        (Vec::new(), 0)
    };

    FftCheckReport {
        version: opts.version.name(),
        kind: opts.kind,
        layout,
        n_log2: opts.n_log2,
        tasks: n_tasks,
        contract,
        races,
        host,
        bank,
        bank_lint,
        tables,
        tables_checked: opts.check_tables,
        hb_witness,
        schedule_digest,
        table_digest,
        bank_bound_milli,
    }
}

/// The composite-kind leg of [`check_fft_tuned`]: real and 2D transforms
/// run as barrier-phased [`KindWorkload`] schedules (inner complex waves
/// plus pack/untangle/transpose stages), so pass 1 verifies the inner
/// graph contract per wave, passes 2–3 run over the composite task list
/// and its real byte footprints, and pass 4 additionally checks the
/// untangle table and the recursive column plan.
fn check_fft_kind(
    opts: &FftCheckOptions,
    tuning: Option<&fgfft::workload::ScheduleTuning>,
) -> FftCheckReport {
    let layout = opts.layout.unwrap_or_else(|| opts.version.layout());
    let key = opts.plan_key(); // composite kinds clamp the radix here
    let block = tuning
        .and_then(|t| t.transpose_block_log2)
        .unwrap_or(workload::DEFAULT_TRANSPOSE_BLOCK_LOG2);
    let kw = KindWorkload::with_block(opts.kind, opts.n_log2, key.radix_log2, layout, block);
    let n_tasks = kw.n_tasks();

    // Pass 1: each complex wave inside the composite still honors the full
    // graph contract (the row/packed wave, and the column wave for 2D).
    let mut contract = verify::check_program(&FftGraph::new(*kw.inner().plan()));
    if let Some(col) = kw.col_inner() {
        contract.extend(verify::check_program(&FftGraph::new(*col.plan())));
    }
    let (hb, coverage) = HbOrder::build(n_tasks, &[Segment::Stages(kw.phases())]);
    contract.extend(coverage);

    let races = find_races(n_tasks, |t| kw.footprint(t), &hb);
    // The inner waves run their own plans' tile lowerings: the primary wave
    // under the tuning, the 2D column wave on its seed schedule.
    let wave = |inner: &Workload, tuning| {
        let fft = *inner.plan();
        let spec = ScheduleSpec::of_tuned(fft, opts.version, tuning);
        tiles::check_host(&fft, &spec, |t| inner.footprint(t))
    };
    let mut host = vec![wave(kw.inner(), tuning)];
    if let Some(col) = kw.col_inner() {
        host.push(wave(col, None));
    }
    let bank = BankPressure::collect(n_tasks, |t| kw.footprint(t), &hb, workload::interleave());
    let bank_lint = bank.lint(opts.threshold);

    let hb_witness = hb_witness(n_tasks, &hb, &host);
    let bank_bound_milli = (0..bank.hist.len())
        .filter_map(|l| bank.imbalance(l))
        .fold(0u64, |acc, r| acc.max((r * 1000.0).ceil() as u64));
    let schedule_digest =
        cert::schedule_digest(key, tuning).expect("tuning must fit the composite inner plan");

    let (tables, table_digest) = if opts.check_tables {
        let built = Plan::build_tuned(key, tuning);
        let mut diags = tables::check_plan(&built);
        diags.extend(tables::check_kind_extensions(&built));
        (diags, cert::table_digest(&built))
    } else {
        (Vec::new(), 0)
    };

    FftCheckReport {
        version: opts.version.name(),
        kind: opts.kind,
        layout,
        n_log2: opts.n_log2,
        tasks: n_tasks,
        contract,
        races,
        host,
        bank,
        bank_lint,
        tables,
        tables_checked: opts.check_tables,
        hb_witness,
        schedule_digest,
        table_digest,
        bank_bound_milli,
    }
}

/// The certificate's happens-before witness: a digest of the level cover
/// of the codelet schedule, then of every host tile lowering.
fn hb_witness(n_tasks: usize, hb: &HbOrder, host: &[TileCheck]) -> u64 {
    let mut witness = Digest::new_tagged(0x4842_5749); // "HBWI"
    let mut cover = |n: usize, hb: &HbOrder| {
        witness.write_usize(n);
        witness.write_usize(hb.num_levels());
        for t in 0..n {
            match hb.level(t) {
                Some(l) => witness.write_u32(l),
                None => witness.write_u64(u64::MAX),
            }
        }
    };
    cover(n_tasks, hb);
    for check in host {
        cover(check.tiles, &check.hb);
    }
    witness.finish()
}
