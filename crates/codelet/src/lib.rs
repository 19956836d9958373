//! # codelet — a fine-grain, dataflow-inspired program-execution-model runtime
//!
//! This crate implements the *codelet program execution model* (codelet PXM)
//! described by Zuckerman et al. and used as the execution substrate of the
//! IPPS 2013 paper *"Towards Memory-Load Balanced Fast Fourier Transformations
//! in Fine-grain Execution Models"* (Chen, Wu, Zuckerman, Gao).
//!
//! A **codelet** is a sequence of non-preemptive instructions: once *fired* it
//! runs to completion. Codelets are grouped into **codelet graphs** (CDGs),
//! which are akin to dataflow graphs: each codelet has a *synchronization
//! slot* counting how many of its data/resource dependencies have been
//! satisfied, and it becomes *ready* (enters a concurrent **ready pool**) only
//! when the count reaches its dependence threshold. Well-behaved (acyclic)
//! codelet graphs are *determinate*: the outputs are a function of the inputs
//! only, even though the interleaving of codelet executions may differ from
//! run to run. That freedom of interleaving is exactly what the FFT study
//! exploits to balance memory-bank load.
//!
//! ## Crate layout
//!
//! * [`graph`] — codelet graph descriptions: the [`CodeletProgram`] trait for
//!   implicitly-defined graphs (dependencies given by formula, as in the FFT)
//!   and [`graph::ExplicitGraph`] for small, explicitly-built DAGs.
//! * [`counter`] — synchronization slots: plain per-codelet dependence
//!   counters and *shared* counter groups (the paper's optimization where 64
//!   sibling codelets that share the same 64 parents share one counter).
//! * [`pool`] — the concurrent ready pool: the paper's LIFO codelet pool,
//!   the only discipline the runtime fires from.
//! * [`runtime`] — the host executor: a pool of worker threads that fire
//!   ready codelets, update sync slots, and detect termination. Supports both
//!   pure dataflow execution and *phased* (barrier) execution so that
//!   coarse-grain baselines can be expressed in the same framework.
//! * [`amm`] — the codelet *abstract machine model*: a hierarchical
//!   description of nodes, chips, clusters, compute units (CUs) and
//!   synchronization units (SUs) with per-level memory, used to map codelet
//!   programs onto machine topologies (the Cyclops-64 simulator builds its
//!   topology from this).
//! * [`stats`] — per-worker execution statistics gathered by the runtime.
//! * [`verify`] — the static graph-contract checker (pass 1 of the `fgcheck`
//!   tool): materializes an implicit program once and reports structural
//!   violations (cycles, miscounted dependencies, shared-group
//!   inconsistencies) as diagnostics instead of runtime deadlocks.
//!
//! ## Quick example
//!
//! ```
//! use codelet::graph::ExplicitGraph;
//! use codelet::runtime::Runtime;
//! use codelet::pool::PoolDiscipline;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! // diamond: 0 -> {1, 2} -> 3
//! let mut g = ExplicitGraph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(0, 2);
//! g.add_edge(1, 3);
//! g.add_edge(2, 3);
//!
//! let fired = AtomicUsize::new(0);
//! let rt = Runtime::with_workers(2);
//! rt.run(&g, PoolDiscipline::Lifo, |_id| {
//!     fired.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(fired.load(Ordering::Relaxed), 4);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod amm;
pub mod counter;
pub mod graph;
pub mod pool;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod verify;

pub use counter::{DepCounters, SharedCounters, SyncSlot};
pub use graph::{BatchProgram, CodeletId, CodeletProgram, CsrProgram};
pub use pool::PoolDiscipline;
pub use runtime::Runtime;
pub use trace::{Span, SpanRecorder, Trace};
pub use verify::{Diagnostic, Severity};
