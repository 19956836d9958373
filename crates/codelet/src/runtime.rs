//! The host executor: fires codelet programs on a pool of worker threads.
//! It is the one scheduler every plan and backend runs through.
//!
//! Two execution modes are provided, mirroring the paper's taxonomy:
//!
//! * [`Runtime::run`] / [`Runtime::run_with_seed_order`] — **fine-grain**
//!   dataflow execution: workers pop ready codelets from a concurrent pool,
//!   fire them, signal dependents' sync slots, and push newly-enabled
//!   codelets. No barriers; termination is detected by a completion count.
//! * [`Runtime::run_phased`] — **coarse-grain** execution: codelets are
//!   organized in phases (the FFT's stages); workers self-schedule within a
//!   phase and wait on a barrier between phases.
//!
//! Shared-counter groups ([`crate::counter::SharedCounters`]) are used
//! automatically when the program declares them.
//!
//! The calling thread is worker 0: a run spawns `workers − 1` scoped
//! threads and runs worker 0's loop itself, so a one-worker run spawns no
//! thread at all.
//!
//! # Panic semantics
//!
//! A panicking codelet body never hangs a run: the first panic sets a
//! poison flag, every worker drains out instead of spinning on a
//! completion count that can no longer be reached, and the original
//! payload is re-raised on the *calling* thread via
//! [`std::panic::resume_unwind`] once the worker scope has joined. The
//! run's partial effects on caller-owned data (e.g. an in-place FFT
//! buffer) are left as-is — the caller must treat the data as garbage.
//!
//! Long-lived callers that must survive a poisoned request — servers
//! dispatching untrusted or fault-injected work, like `fgserve`'s
//! dispatcher threads — should wrap the `run*` call in
//! [`std::panic::catch_unwind`], fail the affected requests, and keep the
//! thread alive; propagating the unwind instead kills the dispatching
//! thread and strands everything queued behind it.

use crate::counter::{DepCounters, SharedCounters};
use crate::graph::{CodeletId, CodeletProgram};
use crate::pool::{LifoPool, PoolDiscipline};
use crate::stats::RunStats;
use fgsupport::backoff::Backoff;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// A reusable codelet runtime. Each `run*` call spawns `workers − 1` scoped
/// threads and runs worker 0 on the calling thread (none spawned at one
/// worker): the runtime itself is just a worker count, so it is cheap to
/// construct and freely shareable.
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: usize,
}

/// A runtime with one worker per available core.
impl Default for Runtime {
    fn default() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl Runtime {
    /// Runtime with an explicit worker count (min 1).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of workers this runtime uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fine-grain execution with the program's default initial-ready order.
    ///
    /// # Panics
    ///
    /// Re-raises the first codelet-body panic on this thread after all
    /// workers have drained (see the module docs' *Panic semantics*).
    pub fn run<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        let seeds = program.initial_ready();
        self.run_with_seed_order(program, discipline, &seeds, body)
    }

    /// Fine-grain execution with an explicit initial pool order. The paper's
    /// `fine worst` / `fine best` results differ *only* in this order.
    pub fn run_with_seed_order<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        seeds: &[CodeletId],
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        self.run_partial(program, discipline, seeds, program.num_codelets(), body)
    }

    /// Fine-grain execution of a *subset* of the program: exactly `expected`
    /// codelets — the seeds plus everything they transitively enable through
    /// `dependents` — will fire. Used by phased algorithms (e.g. the guided
    /// FFT's two passes) where one codelet graph is executed in slices whose
    /// ids keep their global meaning.
    pub fn run_partial<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        seeds: &[CodeletId],
        expected: usize,
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        // In debug builds every run is preceded by the pass-1 contract
        // check (O(V+E), same order as the run itself): a miscounted
        // dependence then fails with a named diagnostic instead of a
        // deadlock or a silent race. Release builds skip this; use
        // [`Runtime::run_checked`] to keep the check unconditionally.
        #[cfg(debug_assertions)]
        {
            let diags = crate::verify::check_partial(program, seeds, expected);
            assert!(
                !crate::verify::has_errors(&diags),
                "codelet graph contract violated:\n{}",
                crate::verify::render(&diags)
            );
        }
        let n_workers = self.workers;
        let total = expected;
        let PoolDiscipline::Lifo = discipline;
        let pool = LifoPool::new();
        pool.seed(seeds);

        let counters = DepCounters::for_program(program);
        let shared =
            (program.num_shared_groups() > 0).then(|| SharedCounters::for_program(program));

        let completed = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let fired = (0..n_workers)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();

        let start = Instant::now();
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        let worker = |w: usize| {
            worker_loop(
                program,
                &pool,
                &counters,
                shared.as_ref(),
                &completed,
                &poisoned,
                total,
                &body,
                &fired[w],
            )
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..n_workers)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            if let Err(payload) = worker(0) {
                panic_payload = Some(payload);
            }
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(payload)) | Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic_payload {
            // A codelet body panicked: every worker has drained out via the
            // poison flag; re-raise the original panic on the caller.
            std::panic::resume_unwind(payload);
        }
        let elapsed = start.elapsed();

        debug_assert_eq!(completed.load(Ordering::Acquire), total);
        let fired_per_worker: Vec<u64> = fired.iter().map(|f| f.load(Ordering::Relaxed)).collect();
        RunStats {
            total_fired: fired_per_worker.iter().sum(),
            fired_per_worker,
            elapsed,
            barriers: 0,
        }
    }

    /// Fine-grain execution preceded by the full pass-1 graph-contract
    /// check ([`crate::verify::check_program`]), in every build profile.
    /// Returns the diagnostics instead of running when any of them is an
    /// error; warnings are discarded (run `check_program` directly to see
    /// them).
    pub fn run_checked<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        body: impl Fn(CodeletId) + Sync,
    ) -> Result<RunStats, Vec<crate::verify::Diagnostic>>
    where
        P: CodeletProgram + ?Sized,
    {
        let diags = crate::verify::check_program(program);
        if crate::verify::has_errors(&diags) {
            return Err(diags);
        }
        Ok(self.run(program, discipline, body))
    }

    /// Coarse-grain (barrier) execution: fire every codelet of `phases[0]`,
    /// wait for all workers, then `phases[1]`, etc. Codelets within a phase
    /// must be mutually independent; dependencies may only point from phase
    /// `i` to phases `> i`. Dependence counters are not consulted.
    pub fn run_phased(
        &self,
        phases: &[Vec<CodeletId>],
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats {
        let n_workers = self.workers;
        let fired = (0..n_workers)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();
        let barrier = Barrier::new(n_workers);
        let poisoned = AtomicBool::new(false);
        // One shared cursor per phase, allocated up front so workers never
        // race on phase setup.
        let cursors: Vec<AtomicUsize> = phases.iter().map(|_| AtomicUsize::new(0)).collect();

        let start = Instant::now();
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        let worker = |w: usize| {
            let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
            for (phase, cursor) in phases.iter().zip(&cursors) {
                while !poisoned.load(Ordering::Acquire) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= phase.len() {
                        break;
                    }
                    match std::panic::catch_unwind(AssertUnwindSafe(|| body(phase[i]))) {
                        Ok(()) => {
                            fired[w].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(p) => {
                            // Keep attending barriers so peers cannot block
                            // forever; re-raise after the scope joins.
                            poisoned.store(true, Ordering::Release);
                            payload.get_or_insert(p);
                            break;
                        }
                    }
                }
                barrier.wait();
            }
            payload
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..n_workers)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            panic_payload = worker(0);
            for h in handles {
                match h.join() {
                    Ok(None) => {}
                    Ok(Some(p)) => {
                        panic_payload.get_or_insert(p);
                    }
                    Err(p) => {
                        panic_payload.get_or_insert(p);
                    }
                }
            }
        });
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        let elapsed = start.elapsed();

        let fired_per_worker: Vec<u64> = fired.iter().map(|f| f.load(Ordering::Relaxed)).collect();
        RunStats {
            total_fired: fired_per_worker.iter().sum(),
            fired_per_worker,
            elapsed,
            barriers: phases.len() as u64,
        }
    }
}

/// The fine-grain worker loop: pop, fire, signal, push. Returns the panic
/// payload of the first codelet body that panicked on this worker, if any;
/// a panic elsewhere drains the loop via the poison flag.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P>(
    program: &P,
    pool: &LifoPool,
    counters: &DepCounters,
    shared: Option<&SharedCounters>,
    completed: &AtomicUsize,
    poisoned: &AtomicBool,
    total: usize,
    body: &(impl Fn(CodeletId) + Sync),
    fired: &AtomicU64,
) -> Result<(), Box<dyn std::any::Any + Send>>
where
    P: CodeletProgram + ?Sized,
{
    let mut children = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    let mut members = Vec::new();
    let backoff = Backoff::new();
    loop {
        if poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        match pool.pop() {
            Some(id) => {
                backoff.reset();
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| body(id))) {
                    // Poison the run so peers stop waiting for a completion
                    // count that will never be reached.
                    poisoned.store(true, Ordering::Release);
                    return Err(payload);
                }
                fired.fetch_add(1, Ordering::Relaxed);

                children.clear();
                program.dependents(id, &mut children);
                if let Some(shared) = shared {
                    // Signal each distinct shared group once; private
                    // children individually.
                    groups.clear();
                    for &child in &children {
                        match program.shared_group(child) {
                            Some(g) => {
                                if !groups.contains(&g.group) {
                                    groups.push(g.group);
                                }
                            }
                            None => {
                                if counters.signal(child) {
                                    pool.push(child);
                                }
                            }
                        }
                    }
                    for &g in &groups {
                        if shared.signal(g) {
                            members.clear();
                            program.shared_group_members(g, &mut members);
                            pool.push_many(&members);
                        }
                    }
                } else {
                    for &child in &children {
                        if counters.signal(child) {
                            pool.push(child);
                        }
                    }
                }

                completed.fetch_add(1, Ordering::AcqRel);
            }
            None => {
                if completed.load(Ordering::Acquire) >= total {
                    return Ok(());
                }
                backoff.snooze();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ExplicitGraph, SharedGroup};
    use fgsupport::sync::Mutex;
    use std::sync::atomic::AtomicU32;

    fn layered_graph(layers: usize, width: usize) -> ExplicitGraph {
        // Fully-connected consecutive layers: every codelet of layer i feeds
        // every codelet of layer i+1.
        let mut g = ExplicitGraph::new(layers * width);
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    g.add_edge(l * width + a, (l + 1) * width + b);
                }
            }
        }
        g
    }

    #[test]
    fn runs_all_codelets_once() {
        let g = layered_graph(4, 8);
        let counts: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::with_workers(4);
        let stats = rt.run(&g, PoolDiscipline::Lifo, |id| {
            counts[id].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_fired, 32);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_dependencies_under_parallelism() {
        // Record firing timestamps with a global logical clock; verify every
        // layer fires strictly after its predecessor layer.
        let g = layered_graph(5, 7);
        let clock = AtomicU32::new(0);
        let times: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        for workers in [1, 2, 8] {
            clock.store(0, Ordering::Relaxed);
            Runtime::with_workers(workers).run(&g, PoolDiscipline::Lifo, |id| {
                times[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            });
            for l in 1..5 {
                let prev_max = (0..7)
                    .map(|a| times[(l - 1) * 7 + a].load(Ordering::SeqCst))
                    .max()
                    .unwrap();
                let cur_min = (0..7)
                    .map(|a| times[l * 7 + a].load(Ordering::SeqCst))
                    .min()
                    .unwrap();
                assert!(
                    cur_min > prev_max,
                    "{workers} workers: layer {l} fired before layer {} finished",
                    l - 1
                );
            }
        }
    }

    #[test]
    fn seed_order_controls_lifo_start() {
        // Independent codelets, one worker, LIFO: firing order must be the
        // reverse of the seed order.
        let g = ExplicitGraph::new(4);
        let order = Mutex::new(Vec::new());
        let rt = Runtime::with_workers(1);
        rt.run_with_seed_order(&g, PoolDiscipline::Lifo, &[0, 1, 2, 3], |id| {
            order.lock().push(id);
        });
        assert_eq!(*order.lock(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn phased_execution_keeps_phase_order() {
        let clock = AtomicU32::new(0);
        let times: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::with_workers(3);
        let stats = rt.run_phased(&[vec![0, 1, 2], vec![3, 4, 5]], |id| {
            times[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        });
        assert_eq!(stats.barriers, 2);
        assert_eq!(stats.total_fired, 6);
        let p0_max = (0..3)
            .map(|i| times[i].load(Ordering::SeqCst))
            .max()
            .unwrap();
        let p1_min = (3..6)
            .map(|i| times[i].load(Ordering::SeqCst))
            .min()
            .unwrap();
        assert!(p1_min > p0_max);
    }

    #[test]
    fn empty_program_terminates() {
        let g = ExplicitGraph::new(0);
        let rt = Runtime::with_workers(2);
        let stats = rt.run(&g, PoolDiscipline::Lifo, |_| {});
        assert_eq!(stats.total_fired, 0);
    }

    #[test]
    fn single_worker_matches_sequential_semantics() {
        let g = layered_graph(3, 4);
        let fired = Mutex::new(Vec::new());
        let rt = Runtime::with_workers(1);
        rt.run(&g, PoolDiscipline::Lifo, |id| fired.lock().push(id));
        assert_eq!(fired.lock().len(), 12);
    }

    /// Program where 4 children share one counter over 4 parents.
    struct SharedProg;
    impl CodeletProgram for SharedProg {
        fn num_codelets(&self) -> usize {
            8
        }
        fn dep_count(&self, id: CodeletId) -> u32 {
            if id < 4 {
                0
            } else {
                4
            }
        }
        fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
            if id < 4 {
                out.extend(4..8);
            }
        }
        fn shared_group(&self, id: CodeletId) -> Option<SharedGroup> {
            (id >= 4).then_some(SharedGroup {
                group: 0,
                target: 4,
            })
        }
        fn num_shared_groups(&self) -> usize {
            1
        }
        fn shared_group_members(&self, _g: usize, out: &mut Vec<CodeletId>) {
            out.extend(4..8);
        }
    }

    #[test]
    fn shared_counters_enable_whole_group() {
        let counts: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::with_workers(4);
        let stats = rt.run(&SharedProg, PoolDiscipline::Lifo, |id| {
            counts[id].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_fired, 8);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_track_workers() {
        let g = layered_graph(2, 16);
        let rt = Runtime::with_workers(4);
        let stats = rt.run(&g, PoolDiscipline::Lifo, |_| {
            std::hint::black_box(0u64);
        });
        assert_eq!(stats.fired_per_worker.len(), 4);
        assert_eq!(stats.fired_per_worker.iter().sum::<u64>(), 32);
    }

    #[test]
    fn single_worker_runs_every_codelet_on_the_caller() {
        // Worker 0 is the calling thread, so a one-worker run spawns
        // nothing: every body invocation must see the caller's ThreadId.
        let caller = std::thread::current().id();
        let on_caller = |id: CodeletId| {
            assert_eq!(std::thread::current().id(), caller, "codelet {id}");
        };
        let g = layered_graph(3, 4);
        let rt = Runtime::with_workers(1);
        assert_eq!(rt.run(&g, PoolDiscipline::Lifo, on_caller).total_fired, 12);
        let partial = rt.run_partial(&g, PoolDiscipline::Lifo, &[0, 1, 2, 3], 12, on_caller);
        assert_eq!(partial.total_fired, 12);
        let phases: Vec<Vec<usize>> = vec![(0..4).collect(), (4..12).collect()];
        assert_eq!(rt.run_phased(&phases, on_caller).total_fired, 12);
    }

    #[test]
    fn panicking_body_does_not_hang_and_propagates() {
        // Without poisoning, the non-panicking workers would spin forever
        // on a completion count that can no longer be reached.
        let g = layered_graph(2, 32);
        for workers in [1, 4] {
            let rt = Runtime::with_workers(workers);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(&g, PoolDiscipline::Lifo, |id| {
                    if id == 7 {
                        panic!("codelet 7 exploded");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate to the caller");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(
                msg.contains("exploded"),
                "{workers} workers, wrong payload: {msg}"
            );
        }
    }

    #[test]
    fn panicking_body_in_phase_does_not_hang() {
        let phases: Vec<Vec<usize>> = vec![(0..16).collect(), (16..32).collect()];
        for workers in [1, 4] {
            let rt = Runtime::with_workers(workers);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run_phased(&phases, |id| {
                    if id == 3 {
                        panic!("phase codelet 3 exploded");
                    }
                });
            }));
            assert!(result.is_err(), "{workers} workers: panic must propagate");
        }
    }

    #[test]
    fn default_runtime_has_workers() {
        let rt = Runtime::default();
        assert!(rt.workers() >= 1);
    }

    #[test]
    fn run_checked_runs_sound_programs() {
        let g = layered_graph(3, 4);
        let fired = AtomicU32::new(0);
        let rt = Runtime::with_workers(2);
        let stats = rt
            .run_checked(&g, PoolDiscipline::Lifo, |_| {
                fired.fetch_add(1, Ordering::Relaxed);
            })
            .expect("sound graph must pass the contract check");
        assert_eq!(stats.total_fired, 12);
        assert_eq!(fired.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn run_checked_rejects_broken_programs_without_running() {
        // dep_count says 2 but only one parent signals: a plain run would
        // deadlock; run_checked must refuse up front.
        struct Starved;
        impl CodeletProgram for Starved {
            fn num_codelets(&self) -> usize {
                2
            }
            fn dep_count(&self, id: CodeletId) -> u32 {
                (id as u32) * 2
            }
            fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
                if id == 0 {
                    out.push(1);
                }
            }
        }
        let fired = AtomicU32::new(0);
        let rt = Runtime::with_workers(2);
        let diags = rt
            .run_checked(&Starved, PoolDiscipline::Lifo, |_| {
                fired.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("broken graph must be rejected");
        assert!(diags
            .iter()
            .any(|d| d.code == crate::verify::CODE_DEP_MISMATCH));
        assert_eq!(fired.load(Ordering::Relaxed), 0, "body must never run");
    }
}
