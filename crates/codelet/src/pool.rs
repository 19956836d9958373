//! The concurrent ready pool.
//!
//! A ready pool holds enabled codelets until a compute unit fires them. The
//! order in which a well-behaved codelet graph's ready codelets fire does
//! not affect its result — but it does affect performance, and for the FFT
//! of the paper it changes the temporal distribution of memory-bank
//! traffic. The runtime fires from one pool, the paper's "concurrent LIFO
//! codelet pool" (Alg. 2). The FIFO, random-bag and seed-order comparisons
//! of the paper are reproduced in `c64sim`'s simulated schedulers.

use crate::graph::CodeletId;
use fgsupport::sync::Mutex;

/// Names the ready-pool discipline of a run.
///
/// The runtime has exactly one discipline, the paper's concurrent LIFO
/// pool, so this selects nothing: it is kept so call sites name the pool
/// they fire from.
#[derive(Debug, Clone)]
pub enum PoolDiscipline {
    /// Last-in first-out: freshly-enabled codelets fire first (depth
    /// first), which lets late-stage FFT codelets overtake early-stage ones.
    Lifo,
}

/// The paper's "concurrent LIFO codelet pool". A mutex-guarded vector is
/// used rather than a Treiber stack: pushes come in bursts of ≤64 and the
/// critical section is a handful of instructions, so an uncontended
/// parking-lot lock wins over per-node allocation.
#[derive(Debug, Default)]
pub(crate) struct LifoPool {
    stack: Mutex<Vec<CodeletId>>,
}

impl LifoPool {
    /// New empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert one ready codelet.
    pub(crate) fn push(&self, id: CodeletId) {
        self.stack.lock().push(id);
    }

    /// Insert a batch of ready codelets (e.g. a shared-counter group that
    /// just fired) under one lock acquisition.
    pub(crate) fn push_many(&self, ids: &[CodeletId]) {
        self.stack.lock().extend_from_slice(ids);
    }

    /// Remove the most recently pushed codelet, or `None` if the pool is
    /// empty. A `None` does **not** mean the program is finished — the
    /// runtime combines it with a completion count for termination
    /// detection.
    pub(crate) fn pop(&self) -> Option<CodeletId> {
        self.stack.lock().pop()
    }

    /// Seed the pool with the initially-ready codelets: the *last* seeded
    /// codelet pops first.
    pub(crate) fn seed(&self, ids: &[CodeletId]) {
        self.push_many(ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn lifo_order() {
        let p = LifoPool::new();
        p.seed(&[1, 2, 3]);
        assert_eq!(
            std::iter::from_fn(|| p.pop()).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn concurrent_push_pop_loses_nothing() {
        let pool = LifoPool::new();
        const PER: usize = 1000;
        let seen: Mutex<HashSet<CodeletId>> = Mutex::new(HashSet::new());
        thread::scope(|s| {
            for w in 0..4 {
                let (pool, seen) = (&pool, &seen);
                s.spawn(move || {
                    for i in 0..PER {
                        pool.push(w * PER + i);
                    }
                    let mut mine = Vec::new();
                    while mine.len() < PER {
                        if let Some(id) = pool.pop() {
                            mine.push(id);
                        } else {
                            thread::yield_now();
                        }
                    }
                    seen.lock().extend(mine);
                });
            }
        });
        assert_eq!(seen.lock().len(), 4 * PER);
    }
}
