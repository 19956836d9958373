//! # fgserve — a concurrent FFT serving layer over `fgfft`
//!
//! The paper's executors answer "how fast is one transform?"; this crate
//! answers the systems question that follows: how do you serve a *stream*
//! of transform requests without re-deriving per-size state, without
//! unbounded queueing, and with enough telemetry to see what happened?
//!
//! Four pieces:
//!
//! * **Plan cache** — [`Planner`] (re-exported from
//!   [`fgfft::planner`]): a sharded, single-flight, wisdom-style cache of
//!   [`Plan`]s. A plan precomputes everything derivable from
//!   `(size, version, layout)`: the twiddle table, the bit-reversal
//!   transposition list, and the codelet dependence graph lowered onto
//!   tiles in flat CSR arrays. Concurrent first requests for one key build it exactly
//!   once.
//! * **Request pipeline** — [`FftService`]: a bounded submission queue with
//!   admission control (full queue ⇒ [`ServeError::Overloaded`], never
//!   silent blocking), supervised dispatcher threads that drain same-size
//!   requests into one batched codelet-program dispatch, and graceful drain
//!   on [`FftService::shutdown`].
//! * **Observability** — [`ServeStats`]: relaxed-atomic counters
//!   (accepted/rejected/completed/deadline-missed/failed, batches, queue
//!   high-water, dispatcher restarts), latency percentiles over a uniform
//!   reservoir sample, and the planner's hit/miss/build counts, exportable
//!   as JSON via [`ServeStats::to_json`].
//! * **Sharded front door** — [`FftCluster`]: consistent-hash routing of
//!   plan keys across independent shards (plan-locality per shard, stable
//!   under resizing), a size-classed zero-copy [`BufferPool`] for request
//!   payloads, per-tenant token-bucket admission ([`QosConfig`]) with two
//!   EDF deadline lanes ([`Lane`]), and cold-plan slow start — while the
//!   cluster-wide accounting identity survives shard restarts and fault
//!   injection.
//!
//! ## Failure semantics
//!
//! Every admitted ticket completes — the serving analogue of the paper's
//! "every enabled codelet eventually fires". A panic in a plan build or a
//! codelet body is caught per same-size group: the affected requests fail
//! with [`ServeError::Internal`] (counted in [`ServeStats::failed`]) and
//! the dispatcher keeps serving. Should a dispatcher thread die anyway,
//! each queued job's drop-guard fails its ticket rather than stranding the
//! waiting client, and a supervisor respawns the thread (bounded by
//! [`service::ServeConfig::max_dispatcher_restarts`], counted in
//! [`ServeStats::dispatcher_restarts`]). [`FftService::shutdown`] drains
//! even when every dispatcher died, so after drain the accounting identity
//! `accepted == completed + deadline_missed + failed` always holds.
//! Clients that cannot block forever use [`Ticket::wait_timeout`]. The
//! [`fault::FaultInjector`] makes these paths testable on demand.
//!
//! ## Quick start
//!
//! ```
//! use fgserve::{FftService, Request, ServeConfig};
//! use fgfft::Complex64;
//!
//! let service = FftService::start(ServeConfig::default());
//! let tickets: Vec<_> = (0..4)
//!     .map(|_| {
//!         let buffer = vec![Complex64::ONE; 512];
//!         service.submit(Request::new(buffer)).expect("queue has room")
//!     })
//!     .collect();
//! for ticket in tickets {
//!     ticket.wait().expect("transform succeeds");
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 4);
//! assert_eq!(stats.planner.built, 1, "one plan served all four");
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod bufpool;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod service;
pub mod shard;

pub use admission::{Lane, QosConfig, TenantId};
pub use bufpool::{BufferPool, Lease, PoolStats};
pub use error::ServeError;
pub use fault::FaultInjector;
pub use fgfft::planner::{Plan, PlanKey, Planner, PlannerStats};
pub use metrics::ServeStats;
pub use service::{FftService, Payload, Request, Response, ServeConfig, SharedSlice, Ticket};
pub use shard::{ClusterConfig, ClusterStats, FftCluster};
