//! Host-side analogue of Fig. 8: wall-clock throughput of the five
//! algorithm versions executing the real FFT on this machine through the
//! codelet runtime. Commodity hosts have no 4-port interleaved DRAM, so the
//! *bank* effects live in the simulator harnesses; this binary shows what a
//! downstream user of the library sees: all versions are numerically
//! identical, fine-grain versions avoid barrier stalls, and throughput
//! scales with cores.
//!
//! Every rep builds its plan and runs it once (`Plan::build(key).execute`),
//! so each point is the uncached plan-per-call cost: twiddle derivation,
//! bit-reversal table, schedule and table materialization, then the
//! transform.
//!
//! Usage: `host_comparison [--full] [--json PATH] [workers=N] [reps=3]`

use codelet::runtime::Runtime;
use fft_repro::{Cli, Figure, Series};
use fgfft::{Complex64, Plan, PlanKey, SeedOrder, Version};
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let workers: usize = cli.get(
        "workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let reps: usize = cli.get("reps", 3);
    let max_n: u32 = cli.get("max_n", if cli.full { 22 } else { 20 });

    let versions: Vec<(&str, Version)> = vec![
        ("coarse", Version::Coarse),
        ("coarse hash", Version::CoarseHash),
        ("fine", Version::Fine(SeedOrder::Natural)),
        ("fine hash", Version::FineHash(SeedOrder::Natural)),
        ("fine guided", Version::FineGuided),
    ];

    let mut fig = Figure::new(
        "host-fig8",
        "host wall-clock GFLOPS per version vs input size",
        "log2 N",
        "GFLOPS (5NlogN / time)",
    );
    fig.note("workers", workers);
    fig.note("reps(best-of)", reps);

    let mut series: Vec<Series> = versions.iter().map(|(l, _)| Series::new(*l)).collect();
    for n_log2 in (14..=max_n).step_by(2) {
        let n = 1usize << n_log2;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.17).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let flops = 5.0 * n as f64 * n_log2 as f64;
        let runtime = Runtime::with_workers(workers);
        for ((_, version), s) in versions.iter().zip(&mut series) {
            let key = PlanKey::new(n, *version, version.layout());
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let mut data = input.clone();
                let start = Instant::now();
                Plan::build(key).execute(&mut data, &runtime);
                best = best.min(start.elapsed().as_secs_f64());
            }
            s.push(n_log2 as f64, flops / best / 1e9);
        }
        eprintln!("done n=2^{n_log2}");
    }
    fig.series = series;
    cli.finish(&fig);
}
