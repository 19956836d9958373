//! Shared plumbing for the figure/table regenerators.
//!
//! Every binary in `src/bin/` reproduces one figure or table of the paper.
//! They print a human-readable table to stdout and, when `--json <path>` is
//! given, also dump the series as JSON for plotting. Common CLI parsing,
//! series bookkeeping, and the standard machine setup live here.

use c64sim::{ChipConfig, SimOptions};
use fgsupport::json::Value;
use std::collections::BTreeMap;

/// One line/series of a figure: a label and (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's).
    pub label: String,
    /// X values (input size exponent, thread count, …).
    pub x: Vec<f64>,
    /// Y values (GFLOPS, access counts, …).
    pub y: Vec<f64>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }
}

/// A whole figure: id, axis names, series, and free-form metadata.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. "fig8".
    pub id: String,
    /// Title taken from the paper.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// Extra context (machine config, notes).
    pub meta: BTreeMap<String, String>,
}

impl Figure {
    /// New empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    /// Attach a metadata entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    /// Print as an aligned text table: one row per x, one column per series.
    pub fn print_table(&self) {
        println!("== {} — {} ==", self.id, self.title);
        for (k, v) in &self.meta {
            println!("#  {k}: {v}");
        }
        print!("{:>12}", self.x_label);
        for s in &self.series {
            print!("  {:>14}", s.label);
        }
        println!();
        let rows = self.series.iter().map(|s| s.x.len()).max().unwrap_or(0);
        for r in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.x.get(r))
                .copied()
                .unwrap_or(f64::NAN);
            print!("{x:>12.0}");
            for s in &self.series {
                match s.y.get(r) {
                    Some(y) => print!("  {y:>14.3}"),
                    None => print!("  {:>14}", "-"),
                }
            }
            println!();
        }
        println!();
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("label", Value::Str(s.label.clone())),
                    (
                        "x",
                        Value::Arr(s.x.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                    (
                        "y",
                        Value::Arr(s.y.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ])
            })
            .collect();
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("title", Value::Str(self.title.clone())),
            ("x_label", Value::Str(self.x_label.clone())),
            ("y_label", Value::Str(self.y_label.clone())),
            ("series", Value::Arr(series)),
            ("meta", Value::Obj(meta)),
        ])
        .to_string_pretty()
    }

    /// Write JSON to `path`.
    pub fn write_json(&self, path: &str) {
        std::fs::write(path, self.to_json()).unwrap_or_else(|e| {
            eprintln!("warning: could not write {path}: {e}");
        });
    }
}

/// Minimal CLI convention shared by the regenerators:
/// `bin [--full] [--json PATH] [--backend LIST] [key=value ...]`.
///
/// `--backend` is sugar for `backend=LIST` — a comma-separated list of
/// `fgfft::BackendSel` names (`scalar`, `simd`) for the bins that
/// measure butterfly kernels; threading is the runtime's worker count, not
/// a backend.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Run the paper-size sweep (otherwise a faster subset).
    pub full: bool,
    /// Optional JSON dump path.
    pub json: Option<String>,
    /// key=value overrides.
    pub kv: BTreeMap<String, String>,
}

impl Cli {
    /// Parse `std::env::args`.
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => cli.full = true,
                "--json" => cli.json = args.next(),
                "--backend" => {
                    if let Some(list) = args.next() {
                        cli.kv.insert("backend".to_string(), list);
                    } else {
                        eprintln!("--backend needs a value (e.g. scalar,simd)");
                    }
                }
                _ => {
                    if let Some((k, v)) = a.split_once('=') {
                        cli.kv.insert(k.to_string(), v.to_string());
                    } else {
                        eprintln!("ignoring unrecognized argument: {a}");
                    }
                }
            }
        }
        cli
    }

    /// Fetch a parsed override.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.kv
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Finish a figure: print it and honor `--json`.
    pub fn finish(&self, fig: &Figure) {
        fig.print_table();
        if let Some(path) = &self.json {
            fig.write_json(path);
            println!("json written to {path}");
        }
    }
}

/// The paper's machine: a C64 chip with the configured thread-unit count.
pub fn paper_chip(thread_units: usize) -> ChipConfig {
    ChipConfig::cyclops64().with_thread_units(thread_units)
}

/// The paper's trace window (3×10⁶ cycles), scaled down for small runs so
/// short executions still produce several windows.
pub fn trace_options(n_log2: u32) -> SimOptions {
    SimOptions {
        trace_window: if n_log2 >= 19 {
            c64sim::BankTrace::PAPER_WINDOW
        } else {
            30_000
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("coarse");
        s.push(15.0, 4.9);
        s.push(16.0, 5.0);
        assert_eq!(s.x, vec![15.0, 16.0]);
        assert_eq!(s.y, vec![4.9, 5.0]);
    }

    #[test]
    fn figure_json_roundtrips() {
        let mut f = Figure::new("fig8", "test", "log2 N", "GFLOPS");
        f.note("threads", 156);
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        f.series.push(s);
        let j = f.to_json();
        assert!(j.contains("\"fig8\""));
        assert!(j.contains("\"threads\": \"156\""));
    }

    #[test]
    fn cli_defaults() {
        let cli = Cli::default();
        assert!(!cli.full);
        assert_eq!(cli.get("tus", 156usize), 156);
    }

    #[test]
    fn paper_chip_has_requested_tus() {
        assert_eq!(paper_chip(40).thread_units, 40);
    }

    #[test]
    fn trace_options_scale_with_size() {
        assert_eq!(trace_options(22).trace_window, 3_000_000);
        assert_eq!(trace_options(15).trace_window, 30_000);
    }
}
