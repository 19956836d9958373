//! Host-measured wall-time summary: per-version per-N median ns, plus the
//! tuned-vs-seed speedup `fgtune` finds for each size.
//!
//! Unlike the figure regenerators (which replay the paper's C64 simulation)
//! this bin measures the *host* executor — the numbers a service operator
//! actually sees — and quantifies what autotuning buys on this machine.
//!
//! Usage: `bench_summary [--full] [--json PATH] [--backend LIST]
//!                       [budget_ms=1500] [reps=5]`
//!
//! Writes `results/bench_summary.json` by default (`--json PATH`
//! overrides). `--full` sweeps up to the paper's N = 2^18; the default is
//! a fast subset. `--backend` (default `scalar,simd`) selects the
//! execution backends measured per size on the fine-guided seed schedule;
//! the JSON reports each backend's median and the derived `simd_speedup`
//! over scalar. Each size also carries
//! a `kinds` section: the packed r2c/c2r medians (with the r2c speedup
//! over the promote-to-complex route) and the composite 2D plan.

use fft_repro::Cli;
use fgfft::exec::{SeedOrder, Version};
use fgfft::wisdom::version_to_string;
use fgfft::{BackendSel, Complex64};
use fgserve::{ClusterConfig, FftCluster, Request, ServeConfig, Ticket};
use fgsupport::json::Value;
use fgtune::{measure_candidate, tune, TuneConfig, TuningSpace};
use std::time::Duration;

const DEFAULT_OUT: &str = "results/bench_summary.json";

fn all_versions() -> Vec<Version> {
    vec![
        Version::Coarse,
        Version::CoarseHash,
        Version::Fine(SeedOrder::Natural),
        Version::FineHash(SeedOrder::Natural),
        Version::FineGuided,
    ]
}

fn parse_backends(list: &str) -> Vec<BackendSel> {
    let mut sels = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match BackendSel::parse(name) {
            Some(sel) if !sels.contains(&sel) => sels.push(sel),
            Some(_) => {}
            None => eprintln!("ignoring unknown backend {name:?}"),
        }
    }
    if sels.is_empty() {
        sels.push(BackendSel::SCALAR);
    }
    sels
}

/// Per-shard serving medians: drive a mixed-size pooled workload through a
/// sharded cluster and report each shard's latency median and load, so the
/// summary shows how evenly the consistent-hash front door spreads sizes.
fn cluster_section(shards: usize, reps_per_size: usize) -> Value {
    let sizes: Vec<u32> = vec![8, 9, 10, 11, 12];
    let cluster = FftCluster::start(ClusterConfig {
        shards,
        base: ServeConfig {
            queue_capacity: 256,
            max_batch: 8,
            workers: 2,
            dispatchers: 1,
            version: Version::FineGuided,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    });
    for &n_log2 in &sizes {
        let n = 1usize << n_log2;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect();
        // Warm the plan so the medians measure steady-state serving.
        cluster
            .submit(Request::new(input.clone()))
            .expect("warmup admitted")
            .wait()
            .expect("warmup completes");
        for chunk in 0..reps_per_size.div_ceil(8) {
            let take = 8.min(reps_per_size - chunk * 8);
            let tickets: Vec<Ticket> = (0..take)
                .map(|_| {
                    let mut lease = cluster.lease(n);
                    lease.copy_from_slice(&input);
                    cluster.submit(Request::pooled(lease)).expect("admitted")
                })
                .collect();
            for ticket in tickets {
                ticket.wait().expect("pooled request completes");
            }
        }
    }
    let stats = cluster.shutdown();
    assert_eq!(
        stats.accepted,
        stats.settled(),
        "cluster accounting identity violated in bench_summary"
    );
    assert_eq!(stats.pool.outstanding, 0, "pool leaked slabs");
    let mut shard_rows = Vec::new();
    for (i, shard) in stats.per_shard.iter().enumerate() {
        println!(
            "cluster  shard {i}: {:>6} completed  p50 {:>8.4} ms  p95 {:>8.4} ms  mean batch {:.2}",
            shard.completed,
            shard.latency_ms.p50,
            shard.latency_ms.p95,
            shard.mean_batch_size()
        );
        shard_rows.push(Value::obj(vec![
            ("shard", Value::Num(i as f64)),
            ("completed", Value::Num(shard.completed as f64)),
            ("p50_ms", Value::Num(shard.latency_ms.p50)),
            ("p95_ms", Value::Num(shard.latency_ms.p95)),
            ("mean_batch_size", Value::Num(shard.mean_batch_size())),
        ]));
    }
    Value::obj(vec![
        ("shards", Value::Num(shards as f64)),
        ("reps_per_size", Value::Num(reps_per_size as f64)),
        (
            "sizes_log2",
            Value::Arr(sizes.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("pool", stats.pool.to_json()),
        ("per_shard", Value::Arr(shard_rows)),
    ])
}

/// Per-kind wall time at one size: the packed real transforms against the
/// promote-to-complex route they replace, and the composite 2D plan —
/// every kind on its fine-guided seed schedule through the same
/// measurement harness as the C2C rows.
fn kind_section(n_log2: u32, reps: usize) -> Value {
    let measure = |kind: fgfft::TransformKind| {
        let space = TuningSpace::new(n_log2, 6).with_kind(kind);
        measure_candidate(&space, &space.seed_candidate(Version::FineGuided), reps)
    };
    let promote_ns = measure(fgfft::TransformKind::C2C);
    let r2c_ns = measure(fgfft::TransformKind::R2C);
    let c2r_ns = measure(fgfft::TransformKind::C2R);
    let (rows_log2, cols_log2) = (n_log2 / 2, n_log2 - n_log2 / 2);
    let d2_ns = measure(fgfft::TransformKind::C2C2D {
        rows_log2,
        cols_log2,
    });
    let r2c_speedup = promote_ns as f64 / r2c_ns.max(1) as f64;
    println!(
        "{:>8}  {r2c_ns:>14}  r2c ({r2c_speedup:.2}x vs promote-to-complex {promote_ns} ns)",
        1u64 << n_log2
    );
    println!("{:>8}  {c2r_ns:>14}  c2r", 1u64 << n_log2);
    println!(
        "{:>8}  {d2_ns:>14}  c2c2d:{}x{}",
        1u64 << n_log2,
        1u64 << rows_log2,
        1u64 << cols_log2
    );
    Value::obj(vec![
        ("promote_to_complex_ns", Value::Num(promote_ns as f64)),
        ("r2c_ns", Value::Num(r2c_ns as f64)),
        ("r2c_speedup", Value::Num(r2c_speedup)),
        ("c2r_ns", Value::Num(c2r_ns as f64)),
        (
            "c2c2d",
            Value::Str(format!("{}x{}", 1u64 << rows_log2, 1u64 << cols_log2)),
        ),
        ("c2c2d_ns", Value::Num(d2_ns as f64)),
    ])
}

fn main() {
    let cli = Cli::parse();
    let sizes: Vec<u32> = if cli.full {
        vec![10, 12, 14, 16, 18]
    } else {
        vec![10, 12]
    };
    let budget = Duration::from_millis(cli.get("budget_ms", 1500u64));
    let reps: usize = cli.get("reps", 5);
    let seed: u64 = cli.get("seed", 0x5EED_F617);
    let backends = parse_backends(
        cli.kv
            .get("backend")
            .map(String::as_str)
            .unwrap_or("scalar,simd"),
    );

    let mut size_rows: Vec<Value> = Vec::new();
    println!(
        "{:>8}  {:>14}  {:>14}  version",
        "N", "median_ns", "vs fine-guided"
    );
    for &n_log2 in &sizes {
        let space = TuningSpace::new(n_log2, 6);

        // Seed (untuned) medians for every Table-I version.
        let mut version_rows: Vec<Value> = Vec::new();
        let mut guided_ns = 0u64;
        let mut seed_best = u64::MAX;
        for version in all_versions() {
            let candidate = space.seed_candidate(version);
            let median_ns = measure_candidate(&space, &candidate, reps);
            if version == Version::FineGuided {
                guided_ns = median_ns;
            }
            seed_best = seed_best.min(median_ns);
            version_rows.push(Value::obj(vec![
                ("version", Value::Str(version_to_string(version))),
                ("median_ns", Value::Num(median_ns as f64)),
            ]));
        }
        for row in &version_rows {
            let name = row.get("version").and_then(Value::as_str).unwrap_or("?");
            let ns = row.get("median_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let rel = if guided_ns > 0 {
                ns / guided_ns as f64
            } else {
                f64::NAN
            };
            println!("{:>8}  {ns:>14.0}  {rel:>13.2}x  {name}", 1u64 << n_log2);
        }

        // Execution backends, measured on the fine-guided seed schedule:
        // same certified tables, different engines, identical bits.
        let mut backend_rows: Vec<Value> = Vec::new();
        let mut scalar_ns = None;
        let mut simd_ns = None;
        for &sel in &backends {
            let mut candidate = space.seed_candidate(Version::FineGuided);
            candidate.backend = sel;
            let median_ns = measure_candidate(&space, &candidate, reps);
            match sel {
                BackendSel::Scalar => scalar_ns = Some(median_ns),
                BackendSel::Simd => simd_ns = Some(median_ns),
            }
            println!("{:>8}  {median_ns:>14}  backend {sel}", 1u64 << n_log2);
            backend_rows.push(Value::obj(vec![
                ("backend", Value::Str(sel.to_string())),
                ("median_ns", Value::Num(median_ns as f64)),
            ]));
        }
        let simd_speedup = match (scalar_ns, simd_ns) {
            (Some(scalar), Some(ns)) => Value::Num(scalar as f64 / ns.max(1) as f64),
            _ => Value::Null,
        };
        if let Value::Num(s) = simd_speedup {
            println!("{:>8}  {:>14}  simd_speedup {s:.2}x", 1u64 << n_log2, "");
        }

        // What tuning buys at this size.
        let outcome = tune(
            &space,
            &TuneConfig {
                budget,
                seed,
                reps,
                ..TuneConfig::default()
            },
        );
        let tuned_ns = outcome.report.best.median_ns;
        let speedup = seed_best as f64 / tuned_ns.max(1) as f64;
        println!(
            "{:>8}  {tuned_ns:>14}  tuned best ({}) — {speedup:.2}x vs best seed\n",
            1u64 << n_log2,
            outcome.report.best.candidate.describe()
        );

        // The non-C2C kinds at the same size, same harness.
        let kinds = kind_section(n_log2, reps);

        size_rows.push(Value::obj(vec![
            ("n_log2", Value::Num(n_log2 as f64)),
            ("versions", Value::Arr(version_rows)),
            ("kinds", kinds),
            ("backends", Value::Arr(backend_rows)),
            ("simd_speedup", simd_speedup),
            ("seed_best_ns", Value::Num(seed_best as f64)),
            ("tuned_best_ns", Value::Num(tuned_ns as f64)),
            (
                "tuned_candidate",
                Value::Str(outcome.report.best.candidate.describe()),
            ),
            ("tuned_speedup_vs_seed", Value::Num(speedup)),
            (
                "best_worst_spread",
                Value::Num(outcome.report.best_worst_spread()),
            ),
        ]));
    }

    // Per-shard serving medians through the cluster front door.
    let cluster_shards: usize = cli.get("cluster_shards", 2usize);
    let cluster_reps: usize = cli.get("cluster_reps", if cli.full { 64usize } else { 24 });
    let cluster = cluster_section(cluster_shards, cluster_reps);

    let doc = Value::obj(vec![
        ("id", Value::Str("bench_summary".to_string())),
        (
            "title",
            Value::Str("Host wall-time by version and size, with fgtune speedup".to_string()),
        ),
        ("machine", Value::Str(fgfft::wisdom::machine_fingerprint())),
        ("reps", Value::Num(reps as f64)),
        ("budget_ms", Value::Num(budget.as_millis() as f64)),
        ("sizes", Value::Arr(size_rows)),
        ("cluster", cluster),
    ]);
    let path = cli.json.clone().unwrap_or_else(|| DEFAULT_OUT.to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&path, doc.to_string_pretty() + "\n") {
        Ok(()) => println!("json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
