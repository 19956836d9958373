//! `fgcheck` — check FFT codelet schedules without simulating them.
//!
//! ```text
//! fgcheck [--n N | --n-log2 LOG2] [--radix-log2 P] [--version V]
//!         [--kind K] [--layout L] [--threshold T] [--format text|json]
//!         [--deny-warnings] [--no-tables] [--all] [--out FILE]
//!
//!   --version        coarse | coarse-hash | fine | fine-hash | fine-guided | all
//!   --kind           c2c | r2c | c2r | c2c2d:<rows_log2>x<cols_log2>
//!                    (default c2c; composite kinds check the barrier-phase
//!                    KindWorkload schedule and the extension tables)
//!   --layout         linear | bitrev-hash | mult-hash   (default: the version's)
//!   --deny-warnings  promote warnings (FG301 bank imbalance) to failures
//!   --no-tables      skip pass 4 (plan-table verification)
//!   --all            full sweep: every version × every layout × the size
//!                    ladder 2^8..2^14, plus an r2c and a square-ish 2D leg
//!                    per size × layout (ignores --version/--layout/--n/--kind)
//!   --out FILE       also write the JSON report array to FILE
//! ```
//!
//! Exit status 0 when every checked schedule is free of errors (FG00x
//! contract violations, FG101 coverage holes, FG102 tile drift, FG201
//! races, FG4xx table violations); 1 otherwise. Bank-pressure findings
//! (FG301) are warnings and do not fail the run unless `--deny-warnings`
//! is given.

use fgcheck::{check_fft, FftCheckOptions};
use fgfft::{SeedOrder, SimVersion, TransformKind, TwiddleLayout};
use fgsupport::json::Value;
use std::process::ExitCode;

struct Cli {
    n_log2: u32,
    radix_log2: u32,
    kind: TransformKind,
    versions: Vec<SimVersion>,
    layout: Option<TwiddleLayout>,
    threshold: f64,
    json: bool,
    deny_warnings: bool,
    check_tables: bool,
    all: bool,
    out: Option<String>,
}

const ALL_VERSIONS: [SimVersion; 5] = [
    SimVersion::Coarse,
    SimVersion::CoarseHash,
    SimVersion::Fine(SeedOrder::Natural),
    SimVersion::FineHash(SeedOrder::Natural),
    SimVersion::FineGuided,
];

const ALL_LAYOUTS: [TwiddleLayout; 3] = [
    TwiddleLayout::Linear,
    TwiddleLayout::BitReversedHash,
    TwiddleLayout::MultiplicativeHash,
];

/// The `--all` sweep's size ladder: small enough to finish in CI seconds,
/// spanning the partial-last-stage (8, 10, 14) and exact (12) cases.
const SWEEP_N_LOG2: [u32; 4] = [8, 10, 12, 14];

const USAGE: &str = "usage: fgcheck [--n N | --n-log2 LOG2] [--radix-log2 P] \
                     [--version coarse|coarse-hash|fine|fine-hash|fine-guided|all] \
                     [--kind c2c|r2c|c2r|c2c2d:<rows_log2>x<cols_log2>] \
                     [--layout linear|bitrev-hash|mult-hash] [--threshold T] \
                     [--format text|json] [--deny-warnings] [--no-tables] \
                     [--all] [--out FILE]";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        n_log2: 15,
        radix_log2: 6,
        kind: TransformKind::C2C,
        versions: ALL_VERSIONS.to_vec(),
        layout: None,
        threshold: fgcheck::DEFAULT_THRESHOLD,
        json: false,
        deny_warnings: false,
        check_tables: true,
        all: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Boolean flags take no value.
        match flag.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--deny-warnings" => {
                cli.deny_warnings = true;
                continue;
            }
            "--no-tables" => {
                cli.check_tables = false;
                continue;
            }
            "--all" => {
                cli.all = true;
                continue;
            }
            "--n" | "--n-log2" | "--radix-log2" | "--version" | "--kind" | "--layout"
            | "--threshold" | "--format" | "--out" => {}
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--n" => {
                let n: u64 = value.parse().map_err(|_| format!("bad --n {value}"))?;
                if !n.is_power_of_two() {
                    return Err(format!("--n {n} is not a power of two"));
                }
                cli.n_log2 = n.trailing_zeros();
            }
            "--n-log2" => {
                cli.n_log2 = value.parse().map_err(|_| format!("bad --n-log2 {value}"))?;
            }
            "--radix-log2" => {
                cli.radix_log2 = value
                    .parse()
                    .map_err(|_| format!("bad --radix-log2 {value}"))?;
            }
            "--version" => {
                cli.versions = match value.as_str() {
                    "coarse" => vec![SimVersion::Coarse],
                    "coarse-hash" => vec![SimVersion::CoarseHash],
                    "fine" => vec![SimVersion::Fine(SeedOrder::Natural)],
                    "fine-hash" => vec![SimVersion::FineHash(SeedOrder::Natural)],
                    "fine-guided" => vec![SimVersion::FineGuided],
                    "all" => ALL_VERSIONS.to_vec(),
                    other => return Err(format!("unknown version {other}\n{USAGE}")),
                };
            }
            "--kind" => {
                cli.kind = TransformKind::parse(value)
                    .ok_or_else(|| format!("unknown kind {value}\n{USAGE}"))?;
            }
            "--layout" => {
                cli.layout = Some(match value.as_str() {
                    "linear" => TwiddleLayout::Linear,
                    "bitrev-hash" => TwiddleLayout::BitReversedHash,
                    "mult-hash" => TwiddleLayout::MultiplicativeHash,
                    other => return Err(format!("unknown layout {other}\n{USAGE}")),
                });
            }
            "--threshold" => {
                cli.threshold = value
                    .parse()
                    .map_err(|_| format!("bad --threshold {value}"))?;
            }
            "--format" => {
                cli.json = match value.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format {other}\n{USAGE}")),
                };
            }
            "--out" => {
                cli.out = Some(value.clone());
            }
            _ => unreachable!("flag was validated above"),
        }
    }
    Ok(cli)
}

/// The (n_log2, kind, version, layout) combinations one invocation checks.
fn combinations(cli: &Cli) -> Vec<(u32, TransformKind, SimVersion, Option<TwiddleLayout>)> {
    if cli.all {
        let mut out = Vec::new();
        for &n_log2 in &SWEEP_N_LOG2 {
            for &version in &ALL_VERSIONS {
                for &layout in &ALL_LAYOUTS {
                    out.push((n_log2, TransformKind::C2C, version, Some(layout)));
                }
            }
            // Composite kinds run one barrier-phased schedule regardless of
            // version, so one representative version per layout suffices.
            let two_d = TransformKind::C2C2D {
                rows_log2: n_log2 / 2,
                cols_log2: n_log2 - n_log2 / 2,
            };
            for kind in [TransformKind::R2C, two_d] {
                for &layout in &ALL_LAYOUTS {
                    out.push((n_log2, kind, SimVersion::CoarseHash, Some(layout)));
                }
            }
        }
        out
    } else {
        cli.versions
            .iter()
            .map(|&v| (cli.n_log2, cli.kind, v, cli.layout))
            .collect()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    let mut reports = Vec::new();
    let combos = combinations(&cli);
    let want_json = cli.json || cli.out.is_some();
    for (n_log2, kind, version, layout) in combos {
        let report = check_fft(&FftCheckOptions {
            n_log2,
            radix_log2: cli.radix_log2,
            kind,
            version,
            layout,
            threshold: cli.threshold,
            check_tables: cli.check_tables,
        });
        failed |= report.has_errors();
        if cli.deny_warnings {
            failed |= !report.diagnostics().is_empty();
        }
        if want_json {
            reports.push(report.to_json());
        }
        if !cli.json {
            print!("{}", report.render_text());
        }
    }
    let doc = Value::Arr(reports);
    if cli.json {
        println!("{}", doc.to_string_pretty());
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, doc.to_string_pretty()) {
            eprintln!("fgcheck: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
