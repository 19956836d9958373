//! The request pipeline: per-tenant admission in front of a bounded,
//! deadline-ordered submission queue, drained by supervised dispatcher
//! thread(s) that batch same-size requests through one cached plan and one
//! runtime dispatch.
//!
//! ```text
//!  clients ──submit──▶ governor ──▶ [EDF lanes] ──pop──▶ dispatcher ──▶ Runtime
//!              │           │            │                   │ ▲
//!         Overloaded   Throttled    capacity          group by size,  supervisor
//!         when full    per tenant   = backpressure    cold-plan gate, (respawn on
//!                                                     execute_batch    death)
//! ```
//!
//! Design points, in the spirit of the paper's fine-grain execution model:
//!
//! * **Admission control, not buffering.** The queue is bounded; a full
//!   queue rejects with [`ServeError::Overloaded`] instead of blocking the
//!   client or growing latency without bound. In front of the queue an
//!   optional [`TenantGovernor`] polices per-tenant token buckets
//!   ([`ServeError::Throttled`]), so one misbehaving tenant burns its own
//!   budget rather than the shared capacity.
//! * **Deadline-aware ordering.** The queue is an [`EdfQueue`]: two strict
//!   priority lanes ([`Lane`]), earliest deadline first within a lane.
//!   Cold plans dispatch under a slow-start [`ColdGate`] so one cache-miss
//!   burst cannot stall warm traffic behind plan construction.
//! * **Zero-copy payloads.** A [`Request`] carries a [`Payload`] — an
//!   owned `Vec`, a [`Lease`] from a [`crate::BufferPool`], or a
//!   [`SharedSlice`] over another process's shared-memory slot — that is
//!   transformed in place and handed back in the [`Response`] untouched:
//!   no copies, and with a pool or a shared slot, no per-request
//!   allocation either.
//! * **Batching amortizes scheduling.** Requests for the same transform
//!   size drained together execute as one batched codelet program
//!   ([`fgfft::Plan::execute_batch`]): one worker-scope spawn and one set of
//!   dependence counters for the whole batch. Results are bit-identical to
//!   serving each request alone — the codelet DAG fixes the arithmetic.
//! * **Every admitted ticket completes.** The paper's model assumes every
//!   enabled codelet eventually fires; the serving layer restores that
//!   guarantee under panics. Each dispatch runs under `catch_unwind`: a
//!   panicking plan build or codelet body fails the affected requests with
//!   [`ServeError::Internal`] and the dispatcher keeps serving. Behind
//!   that, every queued job carries a drop-guard that fails its ticket if a
//!   dying thread abandons it, and a supervisor respawns dispatcher
//!   threads that die despite the guard (up to
//!   [`ServeConfig::max_dispatcher_restarts`]).
//! * **Graceful drain.** [`FftService::shutdown`] stops admissions, lets the
//!   dispatchers drain every queued request, joins them, and returns the
//!   final stats snapshot. If every dispatcher died, shutdown serves the
//!   leftovers inline — after any number of failures the accounting
//!   identity `accepted == completed + deadline_missed + failed` holds.

use crate::admission::{ColdGate, EdfQueue, Lane, QosConfig, TenantGovernor, TenantId};
use crate::bufpool::Lease;
use crate::error::ServeError;
use crate::metrics::{Metrics, ServeStats};
use fgfft::exec::Version;
use fgfft::planner::{PlanKey, Planner};
use fgfft::workload::TransformKind;
use fgfft::Complex64;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a dispatcher sleeps on an empty queue before re-checking the
/// stop flag, and how often the supervisor sweeps for dead dispatchers.
/// Pops are condvar-woken, so this only bounds shutdown/respawn latency.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Submission-queue bound: requests beyond this are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Most requests served by one runtime dispatch.
    pub max_batch: usize,
    /// Worker threads per runtime dispatch.
    pub workers: usize,
    /// Dispatcher threads draining the queue.
    pub dispatchers: usize,
    /// How many dispatcher threads the supervisor may respawn over the
    /// service's lifetime if they die despite the panic guard (defense in
    /// depth — a guarded panic never kills the thread). Past the budget a
    /// dead dispatcher stays dead; queued work is then served inline by
    /// [`FftService::shutdown`].
    pub max_dispatcher_restarts: usize,
    /// Scheduling algorithm for every transform.
    pub version: Version,
    /// Codelet radix exponent (6 = the paper's 64-point codelets).
    pub radix_log2: u32,
    /// Execution backend for every dispatch. `None` (the default) defers
    /// to loaded wisdom per plan key — what `fgtune` measured fastest on
    /// this machine, `scalar` included — falling back to the host's default
    /// vector kernel ([`fgfft::BackendSel::default`]) when wisdom has no
    /// opinion. Backends change execution strategy only: results are
    /// bit-identical across all of them.
    pub backend: Option<fgfft::BackendSel>,
    /// Cap on retained latency samples (reservoir-sampled past the cap).
    pub latency_samples: usize,
    /// Autotuned wisdom file (written by `fgtune`) loaded into the plan
    /// cache at startup. Missing, corrupt, or foreign files are tolerated
    /// — the service starts on seed schedules and records the outcome in
    /// [`FftService::wisdom_status`]. Tuned plans are bit-identical to
    /// seed plans; only execution order changes.
    pub wisdom_path: Option<std::path::PathBuf>,
    /// Fault injection for tests and chaos drills; defaults to a no-op.
    pub fault: crate::fault::FaultInjector,
    /// Per-tenant QoS admission (token buckets in front of the queue).
    /// `None` (the default) disables policing: tagged tenants are admitted
    /// exactly like untagged traffic.
    pub qos: Option<QosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            max_batch: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            dispatchers: 1,
            max_dispatcher_restarts: 4,
            version: Version::FineGuided,
            radix_log2: 6,
            backend: None,
            latency_samples: 1 << 16,
            wisdom_path: None,
            fault: crate::fault::FaultInjector::none(),
            qos: None,
        }
    }
}

/// A mutable view of sample memory owned by another subsystem — in
/// practice a payload slot inside an `fgwire` shared-memory segment — plus
/// an opaque owner guard. The guard's `Drop` is the release hook: when the
/// [`Payload::Shared`] travels through the dispatcher into a [`Response`]
/// (or dies in a failed job's drop-guard), dropping it runs the guard,
/// which returns the slot to its ring and settles the wire-side
/// accounting. `fgserve` deliberately knows nothing about segments or
/// rings; it sees exclusive memory with a destructor.
///
/// This is the zero-copy half of the cross-process path: the transform
/// runs *in place on the client's shared pages*, so the only bytes that
/// ever move are the ones the FFT itself writes.
pub struct SharedSlice {
    ptr: *mut Complex64,
    len: usize,
    /// Dropped last (declaration order): releases the memory `ptr` views.
    #[allow(dead_code)]
    owner: Box<dyn std::any::Any + Send>,
}

impl SharedSlice {
    /// Wrap externally owned sample memory.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of `len` `Complex64`
    /// values for as long as `owner` is alive, properly aligned, and not
    /// aliased by any other reader or writer for that whole lifetime —
    /// the caller is promising this `SharedSlice` has *exclusive* access
    /// until `owner` drops. (The wire layer enforces that through slot
    /// ownership states: a slot is handed to the service only in the
    /// `EXECUTING` state, which the client must not touch.)
    pub unsafe fn new(
        ptr: *mut Complex64,
        len: usize,
        owner: Box<dyn std::any::Any + Send>,
    ) -> Self {
        Self { ptr, len, owner }
    }

    /// Base pointer of the viewed memory — lets tests assert pointer
    /// identity across the submit/execute path (the zero-copy proof).
    pub fn as_ptr(&self) -> *const Complex64 {
        self.ptr
    }
}

// SAFETY: the constructor contract gives this value exclusive access to
// the viewed memory, and the owner guard is itself `Send`, so moving the
// whole bundle across threads is sound.
unsafe impl Send for SharedSlice {}

impl std::fmt::Debug for SharedSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSlice")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for SharedSlice {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        // SAFETY: constructor contract — valid, aligned, exclusive.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::ops::DerefMut for SharedSlice {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        // SAFETY: constructor contract — valid, aligned, exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

/// A request/response buffer: an ordinary owned `Vec`, a slab leased from
/// a [`crate::BufferPool`], or a [`SharedSlice`] viewing another process's
/// shared-memory slot. Either way the data is transformed in place and the
/// same allocation travels from [`Request`] through the dispatcher into
/// the [`Response`] — the pooled variant additionally returns its slab to
/// the pool when the response (or any intermediate owner, including a
/// failed job's drop-guard) is dropped, and the shared variant releases
/// its slot through its owner guard the same way.
#[derive(Debug)]
pub enum Payload {
    /// A plain heap allocation owned by the request.
    Owned(Vec<Complex64>),
    /// A pooled slab; goes home to its [`crate::BufferPool`] on drop.
    Leased(Lease),
    /// A view of another owner's memory (an `fgwire` slot); its guard
    /// releases the slot on drop.
    Shared(SharedSlice),
}

impl Payload {
    /// Number of complex samples.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Leased(l) => l.len(),
            Payload::Shared(s) => s.len,
        }
    }

    /// Whether the payload holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View the samples mutably.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        match self {
            Payload::Owned(v) => v.as_mut_slice(),
            Payload::Leased(l) => &mut l[..],
            Payload::Shared(s) => &mut s[..],
        }
    }

    /// Extract an owned `Vec`. Free for [`Payload::Owned`]; a leased slab
    /// is detached from its pool (counted, not leaked — see
    /// [`crate::bufpool::Lease::detach`]); a shared slot is *copied* (the
    /// memory belongs to another process) and then released.
    pub fn into_vec(self) -> Vec<Complex64> {
        match self {
            Payload::Owned(v) => v,
            Payload::Leased(l) => l.detach(),
            Payload::Shared(s) => s.to_vec(),
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        match self {
            Payload::Owned(v) => v,
            Payload::Leased(l) => l,
            Payload::Shared(s) => s,
        }
    }
}

impl std::ops::DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        self.as_mut_slice()
    }
}

impl From<Vec<Complex64>> for Payload {
    fn from(v: Vec<Complex64>) -> Self {
        Payload::Owned(v)
    }
}

impl From<Lease> for Payload {
    fn from(l: Lease) -> Self {
        Payload::Leased(l)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Vec<Complex64>> for Payload {
    fn eq(&self, other: &Vec<Complex64>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[Complex64]> for Payload {
    fn eq(&self, other: &[Complex64]) -> bool {
        self[..] == *other
    }
}

/// One transform request: a buffer to transform in place, with optional
/// deadline, tenant tag, and priority lane.
#[derive(Debug)]
pub struct Request {
    /// The data; transformed in place and returned in the [`Response`].
    pub buffer: Payload,
    /// Logical transform size; must be a power of two ≥ 2, and
    /// `buffer.len()` must equal the kind's buffer length for it (`n` for
    /// C2C and 2D, `n/2` packed samples for the real kinds).
    pub n: usize,
    /// Which transform to run on the buffer; defaults to
    /// [`TransformKind::C2C`]. Requests of different kinds never share a
    /// batch — each kind resolves its own plan-cache entry.
    pub kind: TransformKind,
    /// If set and already passed when a dispatcher reaches the request —
    /// at batch formation or at settlement after the transform ran — the
    /// request completes with [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Who is asking. `None` bypasses per-tenant QoS (single-user tools);
    /// tagged requests drain their tenant's token bucket when
    /// [`ServeConfig::qos`] is set.
    pub tenant: Option<TenantId>,
    /// Which priority lane the request rides; defaults to
    /// [`Lane::Interactive`].
    pub lane: Lane,
}

impl Request {
    /// Request transforming `buffer` (its length is the transform size).
    pub fn new(buffer: Vec<Complex64>) -> Self {
        Self::from_payload(Payload::Owned(buffer))
    }

    /// Request transforming a pooled slab leased from a
    /// [`crate::BufferPool`] — the zero-copy, zero-allocation path: the
    /// same slab is transformed in place and returned in the [`Response`].
    pub fn pooled(lease: Lease) -> Self {
        Self::from_payload(Payload::Leased(lease))
    }

    fn from_payload(buffer: Payload) -> Self {
        let n = buffer.len();
        Self {
            buffer,
            n,
            kind: TransformKind::C2C,
            deadline: None,
            tenant: None,
            lane: Lane::default(),
        }
    }

    /// Choose the transform kind. For the real kinds the buffer holds the
    /// packed half-size complex samples, so `n` (which
    /// [`Request::new`] inferred from the buffer length) is re-derived as
    /// twice the buffer length.
    pub fn with_kind(mut self, kind: TransformKind) -> Self {
        if matches!(kind, TransformKind::R2C | TransformKind::C2R) {
            self.n = self.buffer.len() * 2;
        }
        self.kind = kind;
        self
    }

    /// Attach a dispatch deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tag the request with its tenant for QoS accounting.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Choose the priority lane.
    pub fn with_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }
}

/// A completed transform.
#[derive(Debug)]
pub struct Response {
    /// The transformed data — the same allocation the [`Request`] carried.
    pub buffer: Payload,
}

/// Completion slot shared between the submitting client and a dispatcher.
#[derive(Debug, Default)]
struct TicketState {
    result: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl TicketState {
    fn complete(&self, result: Result<Response, ServeError>) {
        let mut slot = match self.result.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if slot.is_some() {
            // First completion wins; the job drop-guard can only race its
            // own explicit completion through a bug, never a client.
            debug_assert!(false, "ticket completed twice");
            return;
        }
        *slot = Some(result);
        self.ready.notify_all();
    }
}

/// Handle to one submitted request; redeem it with [`Ticket::wait`] or
/// [`Ticket::wait_timeout`].
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the request completes (transform done, deadline missed,
    /// failed, or drained at shutdown) and return the outcome.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = match self.state.result.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = match self.state.ready.wait(slot) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Block up to `timeout` for the request to complete. Returns the
    /// outcome, or the ticket itself when the timeout expires first so the
    /// caller can keep waiting (or drop it — the service still completes
    /// and accounts for the request either way).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Response, ServeError>, Ticket> {
        let deadline = Instant::now() + timeout;
        {
            let mut slot = match self.state.result.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(result) = slot.take() {
                    return Ok(result);
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    // Lost-wakeup guard: a completion racing this timeout
                    // posts its result under the same lock we hold, so one
                    // final take under the lock is authoritative — the
                    // caller never gets a ticket back while its result is
                    // already sitting in the slot.
                    if let Some(result) = slot.take() {
                        return Ok(result);
                    }
                    break;
                }
                slot = match self.state.ready.wait_timeout(slot, remaining) {
                    Ok((g, _)) => g,
                    Err(p) => p.into_inner().0,
                };
            }
        }
        Err(self)
    }

    /// Non-blocking probe: the outcome if the request already completed.
    pub fn try_wait(self) -> Result<Result<Response, ServeError>, Ticket> {
        let taken = {
            let mut slot = match self.state.result.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            slot.take()
        };
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }
}

/// A queued unit of work.
///
/// Completion is mandatory: a job that is dropped without being settled —
/// e.g. its dispatcher thread died while holding it — fails its ticket
/// with [`ServeError::Internal`] from the drop-guard, so a client blocked
/// in [`Ticket::wait`] can never hang on an abandoned request.
#[derive(Debug)]
struct Job {
    buffer: Payload,
    n_log2: u32,
    kind: TransformKind,
    deadline: Option<Instant>,
    lane: Lane,
    submitted: Instant,
    ticket: Arc<TicketState>,
    metrics: Arc<Metrics>,
    /// Whether the ticket has been completed (or deliberately disarmed).
    settled: bool,
}

impl Job {
    /// Complete the ticket successfully, recording the latency.
    fn succeed(mut self) {
        let latency_ns = self.submitted.elapsed().as_nanos() as u64;
        self.metrics.on_complete(latency_ns);
        let buffer = std::mem::replace(&mut self.buffer, Payload::Owned(Vec::new()));
        self.settled = true;
        self.ticket.complete(Ok(Response { buffer }));
    }

    /// Complete the ticket with `error`, counting it under the matching
    /// metric. The settlement counters use the release-ordered metric
    /// helpers so a stats snapshot can never observe a settlement without
    /// the admission that preceded it (`settled() <= accepted`, always).
    fn fail(&mut self, error: ServeError) {
        match &error {
            ServeError::DeadlineExceeded => {
                self.metrics.on_deadline_missed();
            }
            ServeError::Internal { .. } => {
                self.metrics.on_failed();
            }
            _ => {}
        }
        self.settled = true;
        self.ticket.complete(Err(error));
    }

    /// Disarm the drop-guard without completing the ticket — for jobs the
    /// queue refused, whose ticket is never handed to a client.
    fn discard(mut self) {
        self.settled = true;
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if !self.settled {
            self.fail(ServeError::Internal {
                reason: "request abandoned by a dying dispatcher".to_string(),
            });
        }
    }
}

/// State shared by the service handle, its dispatchers, and the supervisor.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    queue: EdfQueue<Job>,
    metrics: Arc<Metrics>,
    planner: Arc<Planner>,
    /// Per-tenant token buckets; `None` when QoS is not configured.
    governor: Option<TenantGovernor>,
    /// Slow-start window for dispatches whose plan is not yet cached.
    cold_gate: ColdGate,
    /// Cleared by shutdown: no new admissions.
    accepting: AtomicBool,
    /// Set by shutdown after admissions stop: dispatchers may exit once the
    /// queue is drained.
    stop: AtomicBool,
}

/// A concurrent FFT service: bounded admission, plan-cached batched
/// execution, panic-safe supervised dispatch, metrics.
///
/// ```
/// use fgserve::{FftService, Request, ServeConfig};
/// use fgfft::Complex64;
///
/// let service = FftService::start(ServeConfig::default());
/// let ticket = service
///     .submit(Request::new(vec![Complex64::ONE; 1024]))
///     .expect("queue has room");
/// let response = ticket.wait().expect("transform succeeds");
/// assert_eq!(response.buffer.len(), 1024);
/// let stats = service.shutdown();
/// assert_eq!(stats.completed, 1);
/// assert_eq!(stats.accepted, stats.settled());
/// ```
#[derive(Debug)]
pub struct FftService {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    /// Outcome of loading `config.wisdom_path` at startup; `None` when no
    /// path was configured.
    wisdom_status: Option<fgfft::wisdom::WisdomStatus>,
}

impl FftService {
    /// Start the service with its own private plan cache.
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_planner(config, Arc::new(Planner::new()))
    }

    /// Start the service against an existing plan cache (e.g.
    /// [`Planner::shared`], or one pre-warmed by a previous instance).
    ///
    /// When `config.wisdom_path` is set, the file is loaded into the
    /// planner before any dispatcher starts, so every plan the service
    /// ever builds is tuned. A file that fails to load (missing, corrupt,
    /// wrong machine) leaves the planner untouched; the outcome is
    /// available from [`FftService::wisdom_status`].
    pub fn start_with_planner(config: ServeConfig, planner: Arc<Planner>) -> Self {
        let wisdom_status = config
            .wisdom_path
            .as_deref()
            .map(|path| planner.load_wisdom(path));
        let shared = Arc::new(Shared {
            queue: EdfQueue::new(config.queue_capacity),
            metrics: Arc::new(Metrics::new(config.latency_samples)),
            planner,
            governor: config.qos.clone().map(TenantGovernor::new),
            cold_gate: ColdGate::new(config.max_batch.max(1)),
            accepting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            config,
        });
        let dispatchers: Vec<JoinHandle<()>> = (0..shared.config.dispatchers.max(1))
            .map(|_| spawn_dispatcher(&shared))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervise(&shared, dispatchers))
        };
        Self {
            shared,
            supervisor: Some(supervisor),
            wisdom_status,
        }
    }

    /// How loading `wisdom_path` went at startup: `None` when no path was
    /// configured, otherwise the [`fgfft::wisdom::WisdomStatus`].
    pub fn wisdom_status(&self) -> Option<fgfft::wisdom::WisdomStatus> {
        self.wisdom_status
    }

    /// Submit a request. Returns a [`Ticket`] on admission; fails fast with
    /// [`ServeError::Overloaded`] when the queue is full (admission
    /// control), [`ServeError::Throttled`] when the tenant's token bucket
    /// is empty, [`ServeError::ShuttingDown`] after shutdown began, or
    /// [`ServeError::BadRequest`] for an invalid transform size.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        if !self.shared.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let declared = request.n;
        if declared < 2 || !declared.is_power_of_two() {
            return Err(ServeError::BadRequest(format!(
                "length {declared} is not a power of two ≥ 2"
            )));
        }
        let n_log2 = declared.trailing_zeros();
        if let Err(why) = request.kind.validate(n_log2) {
            return Err(ServeError::BadRequest(format!(
                "kind {} does not fit n {declared}: {why}",
                request.kind.as_string()
            )));
        }
        let expected = request.kind.buffer_len(n_log2);
        if request.buffer.len() != expected {
            return Err(ServeError::BadRequest(format!(
                "buffer length {} does not match declared n {declared} (kind {} \
                 takes {expected} complex samples)",
                request.buffer.len(),
                request.kind.as_string()
            )));
        }
        // QoS after validation: malformed requests are not charged to the
        // tenant's bucket, throttled ones never touch the queue.
        if let Some(governor) = &self.shared.governor {
            if let Err(err) = governor.admit(request.tenant) {
                self.shared
                    .metrics
                    .throttled
                    .fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
        }
        let Request {
            buffer,
            kind,
            deadline,
            lane,
            ..
        } = request;
        let state = Arc::new(TicketState::default());
        let job = Job {
            buffer,
            n_log2,
            kind,
            deadline,
            lane,
            submitted: Instant::now(),
            ticket: Arc::clone(&state),
            metrics: Arc::clone(&self.shared.metrics),
            settled: false,
        };
        match self.shared.queue.try_push(job, lane, deadline) {
            Ok(depth) => {
                self.shared.metrics.on_accept(depth);
                Ok(Ticket { state })
            }
            Err(job) => {
                // The client never receives this ticket, so the drop-guard
                // must not complete (and count) it as a failure.
                job.discard();
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded {
                    queue_capacity: self.shared.queue.capacity(),
                    retry_after_us: 0,
                })
            }
        }
    }

    /// Point-in-time stats snapshot (counters plus the plan cache's view).
    pub fn serve_stats(&self) -> ServeStats {
        self.shared.metrics.snapshot(self.shared.planner.stats())
    }

    /// The plan cache this service resolves against.
    pub fn planner(&self) -> &Arc<Planner> {
        &self.shared.planner
    }

    /// Graceful shutdown: stop admitting, drain every queued request, join
    /// the supervisor and dispatchers, and return the final stats.
    /// Already-submitted tickets all complete — transformed,
    /// `DeadlineExceeded`, or `Internal` — even if every dispatcher died:
    /// leftovers are then served inline, so after shutdown
    /// `accepted == completed + deadline_missed + failed`.
    pub fn shutdown(mut self) -> ServeStats {
        self.halt();
        self.serve_stats()
    }

    fn halt(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Live dispatchers drain the queue before exiting; this inline
        // drain only finds work when every dispatcher died past the
        // restart budget — the last line of the completion guarantee.
        if !self.shared.queue.is_empty() {
            let runtime = codelet::runtime::Runtime::with_workers(self.shared.config.workers);
            let mut leftovers: Vec<Job> = Vec::new();
            while let Some(job) = self.shared.queue.try_pop() {
                leftovers.push(job);
            }
            serve_batch(&self.shared, &runtime, &mut leftovers);
        }
    }
}

impl Drop for FftService {
    fn drop(&mut self) {
        // `shutdown` already ran `halt`; a plain drop still drains the
        // queue rather than abandoning tickets.
        self.halt();
    }
}

fn spawn_dispatcher(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || dispatcher_loop(&shared))
}

/// Supervisor: own the dispatcher handles, respawn any that die while the
/// service is running (up to the configured budget), and join them all at
/// shutdown. Guarded panics never kill a dispatcher, so a death here means
/// a panic outside the guard — defense in depth, observable through
/// [`ServeStats::dispatcher_restarts`].
fn supervise(shared: &Arc<Shared>, mut dispatchers: Vec<JoinHandle<()>>) {
    let budget = shared.config.max_dispatcher_restarts as u64;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            for handle in dispatchers.drain(..) {
                let _ = handle.join();
            }
            return;
        }
        let mut index = 0;
        while index < dispatchers.len() {
            if !dispatchers[index].is_finished() {
                index += 1;
                continue;
            }
            let restarts = shared.metrics.dispatcher_restarts.load(Ordering::Acquire);
            if restarts < budget {
                shared
                    .metrics
                    .dispatcher_restarts
                    .fetch_add(1, Ordering::AcqRel);
                let dead = std::mem::replace(&mut dispatchers[index], spawn_dispatcher(shared));
                let _ = dead.join();
                index += 1;
            } else {
                // Budget exhausted: give up on this slot. Queued work is
                // served by surviving dispatchers, or inline at shutdown.
                let dead = dispatchers.swap_remove(index);
                let _ = dead.join();
            }
        }
        std::thread::sleep(IDLE_POLL);
    }
}

/// Dispatcher: drain batches until told to stop *and* the queue is empty.
fn dispatcher_loop(shared: &Shared) {
    let runtime = codelet::runtime::Runtime::with_workers(shared.config.workers);
    let mut batch: Vec<Job> = Vec::with_capacity(shared.config.max_batch.max(1));
    loop {
        batch.clear();
        match shared.queue.pop_timeout(IDLE_POLL) {
            Some(job) => {
                batch.push(job);
                // Greedy same-size gather: batching only helps when the
                // requests share a plan, so stop at the first mismatch
                // (pushing it back would reorder; instead serve it next
                // round — it is already in `batch`'s successor position).
                while batch.len() < shared.config.max_batch.max(1) {
                    match shared.queue.try_pop() {
                        Some(next) => {
                            batch.push(next);
                            let last = &batch[batch.len() - 1];
                            if last.n_log2 != batch[0].n_log2 || last.kind != batch[0].kind {
                                break;
                            }
                        }
                        None => break,
                    }
                }
                // Unguarded trip point: an injected panic here unwinds the
                // dispatcher thread itself, exercising the job drop-guards
                // and the supervisor's respawn path.
                shared.config.fault.before_batch_unguarded();
                serve_batch(shared, &runtime, &mut batch);
            }
            None => {
                if shared.stop.load(Ordering::Acquire) && shared.queue.is_empty() {
                    return;
                }
            }
        }
    }
}

/// Render a `catch_unwind` payload into a `ServeError::Internal` reason.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Execute a drained batch: split it into same-size groups, re-check
/// deadlines per group (an earlier slow or panicking group must not let a
/// later job sail past its deadline unnoticed), and run each group through
/// one plan lookup and one batched dispatch under a panic guard. A panic
/// fails exactly that group's tickets with [`ServeError::Internal`]; the
/// dispatcher — and every other group in the batch — carries on.
fn serve_batch(shared: &Shared, runtime: &codelet::runtime::Runtime, batch: &mut Vec<Job>) {
    while !batch.is_empty() {
        // Split off the leading run of equal sizes (the gather above makes
        // mixed batches rare: at most the final element differs).
        let n_log2 = batch[0].n_log2;
        let kind = batch[0].kind;
        let split = batch
            .iter()
            .position(|j| j.n_log2 != n_log2 || j.kind != kind)
            .unwrap_or(batch.len());
        let mut group: Vec<Job> = batch.drain(..split).collect();
        // Deadline check at the moment *this group* is reached, not once
        // per drained batch: earlier groups may have consumed the budget.
        // `<=` — a deadline of exactly now is already missed; `<` used to
        // admit the boundary instant and transform a request whose budget
        // was gone.
        let now = Instant::now();
        group.retain_mut(|job| {
            let expired = job.deadline.is_some_and(|d| d <= now);
            if expired {
                job.fail(ServeError::DeadlineExceeded);
            }
            !expired
        });
        if group.is_empty() {
            continue;
        }
        let n = 1usize << n_log2;
        let key = PlanKey::with_kind(
            kind,
            n,
            shared.config.version,
            shared.config.version.layout(),
            6,
        );
        // Cold-plan slow start: a size whose plan is not cached yet serves
        // at most the gate's window this dispatch; the excess goes back on
        // the queue (already admitted, so the capacity bound does not
        // apply, and it is not re-counted as accepted) and is served as
        // soon as the plan is warm. Skipped during shutdown drain — there
        // is no warm traffic left to protect, and deferring would spin.
        let cold = !shared.planner.is_warm_key(&key);
        if cold && !shared.stop.load(Ordering::Acquire) {
            let window = shared.cold_gate.window();
            if group.len() > window {
                let deferred = group.split_off(window);
                shared
                    .metrics
                    .cold_deferred
                    .fetch_add(deferred.len() as u64, Ordering::Relaxed);
                for job in deferred {
                    let (lane, deadline) = (job.lane, job.deadline);
                    shared.queue.requeue(job, lane, deadline);
                }
            }
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shared.config.fault.before_dispatch(n);
            let plan = shared.planner.plan_key(key);
            // Backend routing: an explicit config choice wins, else the
            // wisdom entry for this key (what fgtune measured fastest),
            // else the default vector kernel. All three produce identical
            // bits. Preparing picks a static kernel: no allocation.
            let sel = shared
                .config
                .backend
                .or_else(|| {
                    shared
                        .planner
                        .wisdom()
                        .and_then(|w| w.lookup(&plan.key()).map(|e| e.backend))
                })
                .unwrap_or_default();
            let prepared = sel.prepare(&plan);
            let mut views: Vec<&mut [Complex64]> = group
                .iter_mut()
                .map(|job| job.buffer.as_mut_slice())
                .collect();
            prepared.execute_batch(&mut views, runtime);
        }));
        match outcome {
            Ok(_) => {
                if cold {
                    shared.cold_gate.on_cold_built();
                }
                shared.metrics.on_batch(group.len());
                // Deadline re-check at settlement: the transform itself may
                // have consumed the remaining budget. A request whose
                // deadline passed while it executed is a miss, not a
                // completion — the batch-formation check alone let these
                // through uncounted.
                let settled_at = Instant::now();
                for mut job in group {
                    if job.deadline.is_some_and(|d| d <= settled_at) {
                        job.fail(ServeError::DeadlineExceeded);
                    } else {
                        job.succeed();
                    }
                }
            }
            Err(payload) => {
                // The group's buffers may be partially transformed; the
                // transform is lost but nothing hangs and nothing leaks:
                // every affected ticket completes with the panic's reason,
                // and the dispatcher survives to serve the next batch.
                let reason = panic_reason(payload.as_ref());
                for mut job in group {
                    job.fail(ServeError::Internal {
                        reason: reason.clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use fgfft::rms_error;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.31).cos()))
            .collect()
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 32,
            max_batch: 4,
            workers: 2,
            dispatchers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_a_correct_transform() {
        let n = 1 << 10;
        let input = signal(n);
        let expect = fgfft::reference::recursive_fft(&input);
        let service = FftService::start(small_config());
        let response = service
            .submit(Request::new(input))
            .expect("admitted")
            .wait()
            .expect("completed");
        assert!(rms_error(&response.buffer, &expect) < 1e-9);
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.dispatcher_restarts, 0);
        assert_eq!(stats.planner.built, 1);
    }

    #[test]
    fn configured_backends_serve_identical_bits() {
        // Every backend drives the same certified plan tables, so routing
        // the service through either kernel — by config or by wisdom —
        // must not move a single bit relative to the scalar path.
        use fgfft::{Certificate, Plan, ScheduleTuning, Wisdom, WisdomEntry, WisdomStatus};
        let sizes = [1usize << 9, 1 << 10];
        let serve_with = |config: ServeConfig| {
            let service = FftService::start(config);
            let outs: Vec<_> = sizes
                .iter()
                .map(|&n| {
                    let ticket = service.submit(Request::new(signal(n))).expect("admitted");
                    ticket.wait().expect("completed").buffer
                })
                .collect();
            let status = service.wisdom_status();
            service.shutdown();
            (outs, status)
        };
        let with_backend = |backend| {
            serve_with(ServeConfig {
                backend,
                ..small_config()
            })
            .0
        };
        let scalar = with_backend(Some(fgfft::BackendSel::SCALAR));
        assert_eq!(with_backend(None), scalar, "default vector kernel");
        assert_eq!(with_backend(Some(fgfft::BackendSel::SIMD)), scalar, "simd");

        // A certified wisdom file routing one served key to the scalar
        // kernel (not the default) and the other to the vector kernel.
        let mut wisdom = Wisdom::new();
        for (n, backend) in [
            (1 << 10, fgfft::BackendSel::SCALAR),
            (1 << 9, fgfft::BackendSel::SIMD),
        ] {
            let key = PlanKey::new(n, Version::FineGuided, Version::FineGuided.layout());
            let tuning = ScheduleTuning::default();
            let cert = Certificate::for_plan(&Plan::build_tuned(key, Some(&tuning))).unwrap();
            wisdom.insert(WisdomEntry {
                key,
                tuning,
                workers: 2,
                batch: 1,
                backend,
                median_ns: 1,
                seed_median_ns: 1,
                cert: Some(cert),
            });
        }
        let path = std::env::temp_dir().join(format!("fgserve-wis-{}.json", std::process::id()));
        wisdom.save(&path).unwrap();
        let (tuned, status) = serve_with(ServeConfig {
            wisdom_path: Some(path.clone()),
            ..small_config()
        });
        std::fs::remove_file(&path).unwrap();
        assert_eq!(status, Some(WisdomStatus::Loaded { entries: 2 }));
        assert_eq!(tuned, scalar, "wisdom-routed kernels");
    }

    #[test]
    fn rejects_bad_requests_without_queueing() {
        let service = FftService::start(small_config());
        let err = service
            .submit(Request::new(signal(12)))
            .expect_err("12 is not a power of two");
        assert!(matches!(err, ServeError::BadRequest(_)));
        let mut req = Request::new(signal(16));
        req.n = 8;
        assert!(matches!(
            service.submit(req),
            Err(ServeError::BadRequest(_))
        ));
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.rejected, 0, "bad requests are not overload");
    }

    #[test]
    fn serves_transform_kinds_through_their_own_plans() {
        // An r2c request (packed half-size buffer) and a 2D request of the
        // same logical size ride the same service but resolve distinct
        // plan-cache entries, and both match the library veneers bit for
        // bit.
        let n = 1 << 8;
        let real: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let packed: Vec<Complex64> = (0..n / 2)
            .map(|i| Complex64::new(real[2 * i], real[2 * i + 1]))
            .collect();
        let plane = signal(n);

        let service = FftService::start(small_config());
        let r2c = service
            .submit(Request::new(packed.clone()).with_kind(TransformKind::R2C))
            .expect("admitted")
            .wait()
            .expect("completed");
        let two_d = service
            .submit(Request::new(plane.clone()).with_kind(TransformKind::C2C2D {
                rows_log2: 4,
                cols_log2: 4,
            }))
            .expect("admitted")
            .wait()
            .expect("completed");

        // Oracles: the in-process veneers over the same planner machinery.
        let spectrum = fgfft::rfft(&real);
        assert_eq!(r2c.buffer.len(), n / 2);
        assert_eq!(r2c.buffer[0].re, spectrum[0].re);
        assert_eq!(r2c.buffer[0].im, spectrum[n / 2].re);
        for (k, bin) in spectrum.iter().enumerate().take(n / 2).skip(1) {
            assert_eq!(r2c.buffer[k], *bin, "bin {k}");
        }
        let mut expect_2d = plane;
        fgfft::Fft2d::new(16, 16).forward(&mut expect_2d);
        assert_eq!(&two_d.buffer[..], &expect_2d[..]);

        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.planner.built, 2, "one plan per kind");
    }

    #[test]
    fn rejects_kind_buffer_mismatches() {
        let service = FftService::start(small_config());
        // A full-length buffer declared r2c: the kind takes n/2 samples.
        let mut req = Request::new(signal(16)).with_kind(TransformKind::R2C);
        req.n = 16;
        req.buffer = Payload::Owned(signal(16));
        assert!(matches!(
            service.submit(req),
            Err(ServeError::BadRequest(_))
        ));
        // A 2D kind whose axes do not multiply out to n.
        let req = Request::new(signal(16)).with_kind(TransformKind::C2C2D {
            rows_log2: 3,
            cols_log2: 3,
        });
        assert!(matches!(
            service.submit(req),
            Err(ServeError::BadRequest(_))
        ));
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn mixed_sizes_are_served_in_groups() {
        let service = FftService::start(small_config());
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let n = if i % 2 == 0 { 1 << 8 } else { 1 << 9 };
                service.submit(Request::new(signal(n))).expect("admitted")
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait().expect("completed");
            assert_eq!(r.buffer.len(), if i % 2 == 0 { 1 << 8 } else { 1 << 9 });
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.planner.built, 2, "one plan per distinct size");
    }

    #[test]
    fn expired_deadline_skips_the_transform() {
        // Deadline in the past: the dispatcher must report DeadlineExceeded.
        let service = FftService::start(small_config());
        let req =
            Request::new(signal(1 << 8)).with_deadline(Instant::now() - Duration::from_secs(1));
        let outcome = service.submit(req).expect("admitted").wait();
        assert_eq!(outcome.unwrap_err(), ServeError::DeadlineExceeded);
        let stats = service.shutdown();
        assert_eq!(stats.deadline_missed, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.settled(), stats.accepted);
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let service = FftService::start(ServeConfig {
            queue_capacity: 64,
            ..small_config()
        });
        let tickets: Vec<Ticket> = (0..20)
            .map(|_| {
                service
                    .submit(Request::new(signal(1 << 9)))
                    .expect("admitted")
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 20, "shutdown must drain, not drop");
        for t in tickets {
            t.wait().expect("drained requests still complete");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let service = FftService::start(small_config());
        service.shared.accepting.store(false, Ordering::Release);
        assert_eq!(
            service.submit(Request::new(signal(8))).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn try_wait_probes_without_blocking() {
        let service = FftService::start(small_config());
        let ticket = service
            .submit(Request::new(signal(1 << 8)))
            .expect("admitted");
        // Eventually completes; poll until it does.
        let mut ticket = ticket;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match ticket.try_wait() {
                Ok(outcome) => {
                    outcome.expect("completed fine");
                    break;
                }
                Err(t) => {
                    assert!(Instant::now() < deadline, "request never completed");
                    ticket = t;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        service.shutdown();
    }

    #[test]
    fn wait_timeout_returns_the_ticket_then_the_result() {
        let service = FftService::start(small_config());
        let ticket = service
            .submit(Request::new(signal(1 << 12)))
            .expect("admitted");
        // A zero timeout on a just-submitted request virtually always
        // expires first; either way the contract holds.
        match ticket.wait_timeout(Duration::ZERO) {
            Ok(outcome) => {
                outcome.expect("completed fine");
            }
            Err(ticket) => {
                // The returned ticket still completes.
                let outcome = ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("30 s is plenty for one transform");
                outcome.expect("completed fine");
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn injected_panic_fails_tickets_but_not_the_service() {
        let fault = FaultInjector::panic_on_batch(1);
        let service = FftService::start(ServeConfig {
            fault: fault.clone(),
            ..small_config()
        });
        let poisoned = service
            .submit(Request::new(signal(1 << 8)))
            .expect("admitted");
        match poisoned.wait() {
            Err(ServeError::Internal { reason }) => {
                assert!(reason.contains("injected fault"), "reason: {reason}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(fault.fired(), 1);
        // The dispatcher survived: the next request is served normally.
        let input = signal(1 << 8);
        let expect = fgfft::reference::recursive_fft(&input);
        let response = service
            .submit(Request::new(input))
            .expect("admitted")
            .wait()
            .expect("service recovered");
        assert!(rms_error(&response.buffer, &expect) < 1e-9);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.dispatcher_restarts, 0, "guarded panic ≠ dead thread");
        assert_eq!(stats.settled(), stats.accepted);
    }

    #[test]
    fn drop_without_shutdown_still_settles_tickets() {
        let tickets: Vec<Ticket>;
        {
            let service = FftService::start(small_config());
            tickets = (0..6)
                .map(|_| {
                    service
                        .submit(Request::new(signal(1 << 8)))
                        .expect("admitted")
                })
                .collect();
            // Dropped without shutdown(): Drop must still drain.
        }
        for t in tickets {
            t.wait().expect("drop drains rather than abandons");
        }
    }
}
