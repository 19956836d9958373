//! The repository's benchmark: one closed-loop client per workload, run
//! for a fixed time, with every response checked bit for bit.
//!
//! ```text
//! perfbench --workload wire-small|exec-large|plan-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload again with spans around every call into the stack,
//! probes each layer on the workload's own plan, prints the per-layer
//! metrics and writes the spans. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is the record: seed, machine, git revision, sample counts.
//! See `RATIONALE.md` for why each workload exists.

mod churn;
mod common;
mod exec;
mod probe;
mod serving;
mod stats;
mod trace;
mod wire;

use common::{nproc, Ctx, Metric, Report};
use fgsupport::json::Value;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["wire-small", "exec-large", "plan-churn"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let out_dir = std::path::PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// The commit the working directory is checked out at, when it is a git
/// checkout; `unknown` otherwise.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let body = Value::obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), body)
            })
            .collect(),
    )
}

fn record(ctx: &Ctx, report: &Report, metrics: &[Metric], correct: bool) -> Value {
    let isa = fgfft::BackendSel::SIMD.build().capabilities().vector_isa;
    let pairs = |items: &[(String, String)]| {
        Value::Obj(
            items
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        )
    };
    Value::obj(vec![
        ("workload", Value::Str(ctx.workload.clone())),
        ("seed", Value::Num(ctx.seed as f64)),
        ("seconds", Value::Num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        (
            "machine_fingerprint",
            Value::Str(fgfft::machine_fingerprint()),
        ),
        ("isa", Value::Str(isa.into())),
        ("nproc", Value::Num(nproc() as f64)),
        ("git_rev", Value::Str(git_rev())),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", metrics_json(metrics)),
        (
            "samples",
            Value::Obj(
                report
                    .samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Value::Num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "percentiles",
            pairs(&[
                (
                    "throughput_per_s".into(),
                    "median over 25 windows of the completion rate".into(),
                ),
                (
                    "latency_p50_us".into(),
                    "p50 of client-observed latency".into(),
                ),
                (
                    "cold_latency_us".into(),
                    "wire-small, plan-churn: median over passes of the per-pass mean cold latency; exec-large: p10 over set-ups of the cold forward".into(),
                ),
                ("setup_s".into(), "median over set-ups".into()),
                (
                    "exec.latency_p90_us".into(),
                    "p90 of client-observed latency, traced run".into(),
                ),
                (
                    "client.latency_p99_us".into(),
                    "p99 of the same; support in samples.latency_beyond_p99".into(),
                ),
                ("layer *_us".into(), "p50 over the probe's spans".into()),
            ]),
        ),
        ("notes", pairs(&report.notes)),
        (
            "errors",
            Value::Arr(
                report
                    .errors
                    .iter()
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(why) => {
            eprintln!("perfbench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match ctx.workload.as_str() {
        "wire-small" => wire::run(&ctx),
        "exec-large" => exec::run(&ctx),
        _ => churn::run(&ctx),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    let metrics = if ctx.trace {
        report.per_layer.clone()
    } else {
        report.end_to_end.clone()
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        report
            .errors
            .push(format!("metric {} has no finite value", m.name));
    }
    let correct = report.errors.is_empty() && report.attempted > 0;
    for error in &report.errors {
        eprintln!("perfbench: correctness: {error}");
    }
    let record = record(&ctx, &report, &metrics, correct);
    let path = ctx.out_dir.join(format!(
        "record-{}-{}-trace{}.json",
        ctx.workload, ctx.seed, ctx.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, record.to_string_pretty()) {
        eprintln!("perfbench: write {}: {e}", path.display());
    }
    println!("{record}");
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
