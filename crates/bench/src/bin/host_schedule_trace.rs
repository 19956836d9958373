//! Host schedule visualization: run the coarse and fine FFT schedules on
//! this machine with span tracing and render worker Gantt charts — the
//! host-side view of what barrier stalls look like vs dataflow execution.
//! Each span is one [`fgfft::Plan::run_codelet`] over the plan's tables.
//!
//! Usage: `host_schedule_trace [n_log2=16] [workers=4]`

use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use codelet::trace::SpanRecorder;
use fft_repro::Cli;
use fgfft::exec::shared::SharedData;
use fgfft::graph::FftGraph;
use fgfft::{Complex64, Plan, PlanKey, TwiddleLayout, Version};

fn main() {
    let cli = Cli::parse();
    let n_log2: u32 = cli.get("n_log2", 16);
    let workers: usize = cli.get("workers", 4);
    // Both schedules below are built here; the plan supplies the tables.
    let plan = Plan::build(PlanKey::new(
        1 << n_log2,
        Version::Coarse,
        TwiddleLayout::Linear,
    ));
    let fft = *plan.fft_plan();
    let runtime = Runtime::with_workers(workers);
    let graph = FftGraph::new(fft);

    let make_data = || -> Vec<Complex64> {
        let mut d: Vec<Complex64> = (0..fft.n())
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), 0.0))
            .collect();
        fgfft::bitrev::bit_reverse_permute(&mut d);
        d
    };

    println!(
        "N = 2^{n_log2}: {} codelets x {} stages on {workers} workers\n",
        fft.codelets_per_stage(),
        fft.stages()
    );

    // Coarse: one barrier per stage.
    {
        let mut data = make_data();
        let view = SharedData::new(&mut data);
        let rec = SpanRecorder::new();
        let cps = fft.codelets_per_stage();
        let phases: Vec<Vec<usize>> = (0..fft.stages())
            .map(|s| (s * cps..(s + 1) * cps).collect())
            .collect();
        runtime.run_phased(
            &phases,
            // SAFETY: the runtime fires `id` only after its parents.
            rec.wrap(|id| unsafe { plan.run_codelet(&view, id) }),
        );
        let trace = rec.finish();
        println!(
            "coarse (barriers): makespan {:.2} ms, utilization {:.1}%",
            trace.makespan_ns() as f64 / 1e6,
            100.0 * trace.utilization()
        );
        print!("{}", trace.gantt(72));
    }

    // Fine: dataflow.
    {
        let mut data = make_data();
        let view = SharedData::new(&mut data);
        let rec = SpanRecorder::new();
        runtime.run(
            &graph,
            PoolDiscipline::Lifo,
            // SAFETY: the runtime fires `id` only after its parents.
            rec.wrap(|id| unsafe { plan.run_codelet(&view, id) }),
        );
        let trace = rec.finish();
        println!(
            "\nfine (dataflow):   makespan {:.2} ms, utilization {:.1}%",
            trace.makespan_ns() as f64 / 1e6,
            100.0 * trace.utilization()
        );
        print!("{}", trace.gantt(72));
    }
}
