//! Stress tests of the codelet runtime on randomized DAGs: every codelet
//! fires exactly once, dependencies are respected under heavy parallelism,
//! and every worker count agrees.

use codelet::graph::{CodeletProgram, ExplicitGraph};
use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use fgsupport::rng::Rng64;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Random layered DAG: `layers` layers of `width` codelets; each codelet
/// depends on 1..=4 random codelets of the previous layer.
fn random_dag(seed: u64, layers: usize, width: usize) -> ExplicitGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut g = ExplicitGraph::new(layers * width);
    for l in 1..layers {
        for c in 0..width {
            let deps = rng.gen_range(1..4.min(width) + 1);
            let mut picked = Vec::new();
            while picked.len() < deps {
                let p = rng.gen_range(0..width);
                if !picked.contains(&p) {
                    picked.push(p);
                }
            }
            for p in picked {
                g.add_edge((l - 1) * width + p, l * width + c);
            }
        }
    }
    g
}

#[test]
fn random_dags_fire_every_codelet_once() {
    for seed in 0..6 {
        let g = random_dag(seed, 8, 50);
        let counts: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        for workers in [1, 2, 8] {
            counts.iter().for_each(|c| c.store(0, Ordering::Relaxed));
            let stats = Runtime::with_workers(workers).run(&g, PoolDiscipline::Lifo, |id| {
                counts[id].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.total_fired as usize, g.len());
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}

#[test]
fn dependencies_hold_under_contention() {
    let g = random_dag(99, 6, 64);
    let clock = AtomicU32::new(1);
    let stamp: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
    let rt = Runtime::with_workers(16);
    rt.run(&g, PoolDiscipline::Lifo, |id| {
        stamp[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
    });
    // Every edge u -> v must satisfy stamp[u] < stamp[v].
    let mut kids = Vec::new();
    for u in 0..g.len() {
        kids.clear();
        g.dependents(u, &mut kids);
        for &v in &kids {
            assert!(
                stamp[u].load(Ordering::SeqCst) < stamp[v].load(Ordering::SeqCst),
                "edge {u}->{v} violated"
            );
        }
    }
}

#[test]
fn run_partial_executes_exact_subset() {
    // Two disjoint chains; seeds only reach one of them.
    let mut g = ExplicitGraph::new(20);
    for i in 0..9 {
        g.add_edge(i, i + 1); // chain A: 0..10
        g.add_edge(10 + i, 11 + i); // chain B: 10..20
    }
    let fired = AtomicUsize::new(0);
    let rt = Runtime::with_workers(4);
    let stats = rt.run_partial(&g, PoolDiscipline::Lifo, &[0], 10, |_| {
        fired.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(stats.total_fired, 10);
    assert_eq!(fired.load(Ordering::Relaxed), 10);
}

#[test]
fn phased_execution_over_random_layers() {
    let layers = 5;
    let width = 40;
    let phases: Vec<Vec<usize>> = (0..layers)
        .map(|l| (l * width..(l + 1) * width).collect())
        .collect();
    let clock = AtomicU32::new(0);
    let stamp: Vec<AtomicU32> = (0..layers * width).map(|_| AtomicU32::new(0)).collect();
    let rt = Runtime::with_workers(8);
    let stats = rt.run_phased(&phases, |id| {
        stamp[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
    });
    assert_eq!(stats.barriers, layers as u64);
    for l in 1..layers {
        let prev_max = (0..width)
            .map(|c| stamp[(l - 1) * width + c].load(Ordering::SeqCst))
            .max()
            .unwrap();
        let cur_min = (0..width)
            .map(|c| stamp[l * width + c].load(Ordering::SeqCst))
            .min()
            .unwrap();
        assert!(cur_min > prev_max, "phase {l} overlapped phase {}", l - 1);
    }
}

#[test]
fn wide_fanout_graph() {
    // One source feeding 2000 sinks: the source's completion releases a
    // burst; every sink must still fire exactly once.
    let mut g = ExplicitGraph::new(2001);
    for i in 1..=2000 {
        g.add_edge(0, i);
    }
    let fired = AtomicUsize::new(0);
    let rt = Runtime::with_workers(8);
    rt.run(&g, PoolDiscipline::Lifo, |_| {
        fired.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(fired.load(Ordering::Relaxed), 2001);
}

#[test]
fn deep_chain_does_not_stack_overflow_or_deadlock() {
    let n = 50_000;
    let mut g = ExplicitGraph::new(n);
    for i in 0..n - 1 {
        g.add_edge(i, i + 1);
    }
    let fired = AtomicUsize::new(0);
    let rt = Runtime::with_workers(4);
    let stats = rt.run(&g, PoolDiscipline::Lifo, |_| {
        fired.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(stats.total_fired as usize, n);
}
