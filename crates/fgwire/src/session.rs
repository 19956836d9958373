//! Session state machines over a mapped segment — everything the
//! protocol does *after* setup. The transport layer ([`crate::client`],
//! [`crate::server`]) performs the handshake and hands these the
//! eventfds, and the client session the control stream; tests drive
//! them directly in one process without either, which is how the
//! pointer-identity and adversarial suites stay deterministic.
//!
//! Client side ([`ClientSession`]): slot free-lists per size class,
//! credit accounting, submit-ring production, completion reaping. Its
//! pump waits on the completion doorbell and the peer stream together,
//! so a server hangup fails pending tickets on the thread that waits.
//! Server side ([`ServerSession`]): submit-ring consumption, hostile-input
//! validation, the zero-copy handoff into [`fgserve::Payload::Shared`],
//! and completion-ring production — refusals from the caller's thread,
//! settlements from the slot guard when the service releases the slot.
//!
//! ## Slot life cycle
//!
//! ```text
//!   client alloc        client submit        server claim      guard release
//! FREE ──────▶ WRITING ──────▶ SUBMITTED ──────▶ EXECUTING ──────▶ DONE
//!   ▲                                                               │
//!   └────────────────────── client release (response drop) ◀────────┘
//! ```
//!
//! The server's claim is a CAS, so replayed or double-submitted entries
//! lose cleanly; every pre-claim rejection travels only on the completion
//! ring (the slot header is never touched for state the server has not
//! won), so a hostile entry can never corrupt a neighboring slot's
//! in-flight request.

use crate::proto::{self, code, state, SegmentLayout};
use crate::ring::{
    pack_complete, pack_submit, unpack_complete, unpack_submit, Ring, SharedSegment,
};
use fgfft::workload::TransformKind;
use fgfft::Complex64;
use fgserve::admission::{Lane, TenantId};
use fgserve::{Payload, Request, ServeError, SharedSlice, SliceOwner};
use fgsupport::shm::{poll, EventFd, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL};
use std::collections::HashMap;
use std::io::Read;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default advisory backoff handed out with `OVERLOADED` completions when
/// no latency estimate is available yet.
pub const DEFAULT_RETRY_AFTER_US: u64 = 250;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One in-flight operation's completion slot (client side).
#[derive(Debug)]
struct OpState {
    /// Completion code once reaped; `retry_after_us` rides along for
    /// overload completions.
    result: Mutex<Option<(u16, u64)>>,
    seq: u32,
}

struct ClientInner {
    seg: SharedSegment,
    submit_ring: Ring,
    complete_ring: Ring,
    /// Free slot indices per class, smallest class first (same order as
    /// the layout's classes).
    free: Mutex<Vec<Vec<u32>>>,
    /// In-flight ops by slot index.
    ops: Mutex<HashMap<u32, Arc<OpState>>>,
    /// Remaining server-granted credits (max in-flight submissions).
    credits: AtomicU64,
    /// Serializes submit-ring production (the ring is SPSC across the
    /// process boundary; threads on this side take turns).
    submit_lock: Mutex<()>,
    /// Server's queue capacity (from the handshake), for error mapping.
    queue_capacity: usize,
    /// EWMA of completion latency in microseconds; seeds retry-after
    /// hints when the client itself is out of slots or credits.
    latency_ewma_us: AtomicU64,
    /// Set when the server is lost; pending and future ops fail with
    /// `Protocol` instead of waiting forever.
    dead: AtomicBool,
    /// Doorbell to ring after pushing submissions (server-side poll);
    /// `None` when the peer is pumped in-process (tests).
    submit_bell: Option<EventFd>,
    /// Doorbell the server rings after pushing completions.
    complete_bell: Option<EventFd>,
    /// The control stream to the server, non-blocking. Nothing travels on
    /// it after the handshake; [`ClientInner::pump`] polls it beside the
    /// completion doorbell, and its hangup or EOF is server death.
    peer: Option<UnixStream>,
}

/// Client half of a wire session: allocate slots, fill them in place,
/// submit, await completions. All admission paths are non-blocking —
/// out of slots or credits surfaces as [`ServeError::Overloaded`] with a
/// retry-after hint, never a block.
#[derive(Clone)]
pub struct ClientSession {
    inner: Arc<ClientInner>,
}

/// Submission options mirroring the in-process [`fgserve::Request`]
/// surface (tenant is session-scoped, fixed at connect).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Deadline budget from submission; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Priority lane.
    pub lane: Lane,
}

/// A slot leased for writing: `DerefMut` straight into the shared
/// segment, so the samples the caller writes are the samples the server
/// transforms — no intermediate buffer. Dropping without submitting
/// returns the slot.
pub struct SlotLease {
    inner: Arc<ClientInner>,
    slot: u32,
    seq: u32,
    len: usize,
    n: usize,
    kind: TransformKind,
    submitted: bool,
}

impl SlotLease {
    /// The declared transform size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The declared transform kind.
    pub fn kind(&self) -> TransformKind {
        self.kind
    }

    /// The slot index (diagnostics and tests).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

impl std::fmt::Debug for SlotLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotLease")
            .field("slot", &self.slot)
            .field("seq", &self.seq)
            .field("n", &self.n)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for SlotLease {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        // SAFETY: the slot is in WRITING state — exclusively ours until
        // submitted; pointer and length come from the validated layout.
        unsafe {
            std::slice::from_raw_parts(self.inner.seg.payload_ptr(self.slot as usize), self.len)
        }
    }
}

impl std::ops::DerefMut for SlotLease {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        // SAFETY: as above.
        unsafe {
            std::slice::from_raw_parts_mut(self.inner.seg.payload_ptr(self.slot as usize), self.len)
        }
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        if !self.submitted {
            self.inner.release_slot(self.slot, false);
        }
    }
}

/// Handle to one submitted wire request. Redeem with [`WireTicket::wait`]
/// or [`WireTicket::wait_timeout`].
pub struct WireTicket {
    inner: Arc<ClientInner>,
    op: Arc<OpState>,
    slot: u32,
    len: usize,
    submitted_at: Instant,
}

/// A completed wire transform: `Deref` to the result samples, still in
/// the shared slot. Dropping releases the slot back to the session (and
/// returns its credit).
pub struct WireResponse {
    inner: Arc<ClientInner>,
    slot: u32,
    len: usize,
}

impl std::fmt::Debug for WireTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireTicket")
            .field("slot", &self.slot)
            .field("seq", &self.op.seq)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for WireResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireResponse")
            .field("slot", &self.slot)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for WireResponse {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        // SAFETY: the slot is DONE — the server released it back to us.
        unsafe {
            std::slice::from_raw_parts(self.inner.seg.payload_ptr(self.slot as usize), self.len)
        }
    }
}

impl Drop for WireResponse {
    fn drop(&mut self) {
        self.inner.release_slot(self.slot, true);
    }
}

impl WireTicket {
    /// Block until the server completes the request. Pumps the completion
    /// ring cooperatively, so no dedicated reaper thread is required.
    pub fn wait(self) -> Result<WireResponse, ServeError> {
        loop {
            match self.poll_result() {
                Some(outcome) => return outcome,
                None => self.inner.pump(Duration::from_millis(5)),
            }
        }
    }

    /// Block up to `timeout`; `Err(self)` hands the ticket back when the
    /// server has not answered yet.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<WireResponse, ServeError>, WireTicket> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(outcome) = self.poll_result() {
                return Ok(outcome);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(self);
            }
            self.inner.pump(remaining.min(Duration::from_millis(5)));
        }
    }

    fn poll_result(&self) -> Option<Result<WireResponse, ServeError>> {
        let taken = lock(&self.op.result).take();
        let (code, retry_after_us) = match taken {
            Some(pair) => pair,
            None => {
                if self.inner.dead.load(Ordering::Acquire) {
                    // Transport gone: fail rather than spin forever. The
                    // slot is not released (its memory state is unknown);
                    // the whole session is torn down anyway.
                    return Some(Err(ServeError::Protocol {
                        reason: "server connection lost".to_string(),
                    }));
                }
                return None;
            }
        };
        let latency_us = self.submitted_at.elapsed().as_micros() as u64;
        self.inner.observe_latency(latency_us);
        if code == code::PROTOCOL && self.inner.dead.load(Ordering::Acquire) {
            // `mark_dead` settles pending ops with PROTOCOL; give them the
            // real story rather than a generic wire-violation message.
            self.inner.release_slot(self.slot, true);
            return Some(Err(ServeError::Protocol {
                reason: "server connection lost".to_string(),
            }));
        }
        match proto::code_to_error(code, self.inner.queue_capacity, retry_after_us, None) {
            None => Some(Ok(WireResponse {
                inner: Arc::clone(&self.inner),
                slot: self.slot,
                len: self.len,
            })),
            Some(error) => {
                // Failed ops release their slot immediately — the payload
                // is dead either way.
                self.inner.release_slot(self.slot, true);
                Some(Err(error))
            }
        }
    }
}

impl ClientSession {
    /// Build the client side over a mapped segment. `credits` and
    /// `queue_capacity` come from the server's accept frame; `peer` is
    /// the control stream, already non-blocking. The bells and `peer`
    /// are `None` when the server side runs in-process (tests pump
    /// manually).
    pub fn new(
        seg: SharedSegment,
        credits: u64,
        queue_capacity: usize,
        submit_bell: Option<EventFd>,
        complete_bell: Option<EventFd>,
        peer: Option<UnixStream>,
    ) -> Self {
        let layout = seg.layout();
        let mut free: Vec<Vec<u32>> = Vec::with_capacity(layout.config.classes.len());
        let mut slot = 0u32;
        for class in &layout.config.classes {
            free.push((slot..slot + class.count).rev().collect());
            slot += class.count;
        }
        let submit_ring = seg.submit_ring();
        let complete_ring = seg.complete_ring();
        Self {
            inner: Arc::new(ClientInner {
                seg,
                submit_ring,
                complete_ring,
                free: Mutex::new(free),
                ops: Mutex::new(HashMap::new()),
                credits: AtomicU64::new(credits),
                submit_lock: Mutex::new(()),
                queue_capacity,
                latency_ewma_us: AtomicU64::new(0),
                dead: AtomicBool::new(false),
                submit_bell,
                complete_bell,
                peer,
            }),
        }
    }

    /// Lease a free slot big enough for an `n`-point transform of `kind`,
    /// ready for the caller to fill. Validation mirrors the in-process
    /// submit: bad parameters are [`ServeError::BadRequest`]; no suitable
    /// free slot is [`ServeError::Overloaded`] with a retry-after hint.
    pub fn alloc(&self, kind: TransformKind, n: usize) -> Result<SlotLease, ServeError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(ServeError::BadRequest(format!(
                "length {n} is not a power of two ≥ 2"
            )));
        }
        let n_log2 = n.trailing_zeros();
        if n_log2 > proto::MAX_N_LOG2 {
            return Err(ServeError::BadRequest(format!(
                "length {n} exceeds the wire cap 2^{}",
                proto::MAX_N_LOG2
            )));
        }
        kind.validate(n_log2).map_err(|why| {
            ServeError::BadRequest(format!(
                "kind {} does not fit n {n}: {why}",
                kind.as_string()
            ))
        })?;
        let needed = kind.buffer_len(n_log2);
        let slot = {
            let layout = self.inner.seg.layout();
            let mut free = lock(&self.inner.free);
            let mut found = None;
            for (class_index, class) in layout.config.classes.iter().enumerate() {
                if (1usize << class.len_log2) >= needed {
                    if let Some(slot) = free[class_index].pop() {
                        found = Some(slot);
                        break;
                    }
                }
            }
            match found {
                Some(slot) => slot,
                None => {
                    if (1usize
                        << layout
                            .config
                            .classes
                            .last()
                            .map(|c| c.len_log2)
                            .unwrap_or(0))
                        < needed
                    {
                        return Err(ServeError::BadRequest(format!(
                            "no size class holds {needed} samples"
                        )));
                    }
                    return Err(ServeError::Overloaded {
                        queue_capacity: self.inner.queue_capacity,
                        retry_after_us: self.inner.retry_hint_us(),
                    });
                }
            }
        };
        let header = self.inner.seg.header(slot as usize);
        header.state.store(state::WRITING, Ordering::Release);
        let seq = header.seq.fetch_add(1, Ordering::AcqRel).wrapping_add(1);
        Ok(SlotLease {
            inner: Arc::clone(&self.inner),
            slot,
            seq,
            len: needed,
            n,
            kind,
            submitted: false,
        })
    }

    /// Submit a filled lease. Consumes one credit; out of credits is
    /// [`ServeError::Overloaded`] with a retry-after hint (the lease is
    /// returned to the free list either way — re-`alloc` after backoff).
    pub fn submit(&self, mut lease: SlotLease, opts: SubmitOpts) -> Result<WireTicket, ServeError> {
        if self.inner.dead.load(Ordering::Acquire) {
            return Err(ServeError::Protocol {
                reason: "server connection lost".to_string(),
            });
        }
        // One credit per in-flight submission, CAS'd down so concurrent
        // submitters cannot double-spend.
        loop {
            let have = self.inner.credits.load(Ordering::Acquire);
            if have == 0 {
                return Err(ServeError::Overloaded {
                    queue_capacity: self.inner.queue_capacity,
                    retry_after_us: self.inner.retry_hint_us(),
                });
            }
            if self
                .inner
                .credits
                .compare_exchange(have, have - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        let header = self.inner.seg.header(lease.slot as usize);
        let n_log2 = lease.n.trailing_zeros();
        let (tag, rows, cols) = proto::encode_kind(lease.kind);
        header.n_log2.store(n_log2, Ordering::Relaxed);
        header.kind_tag.store(tag, Ordering::Relaxed);
        header.rows_log2.store(rows, Ordering::Relaxed);
        header.cols_log2.store(cols, Ordering::Relaxed);
        header.lane.store(lease_lane(opts.lane), Ordering::Relaxed);
        header.deadline_rel_us.store(
            opts.deadline
                .map(|d| d.as_micros().max(1) as u64)
                .unwrap_or(0),
            Ordering::Relaxed,
        );
        header.error_code.store(code::OK as u32, Ordering::Relaxed);
        header.retry_after_us.store(0, Ordering::Relaxed);
        let op = Arc::new(OpState {
            result: Mutex::new(None),
            seq: lease.seq,
        });
        lock(&self.inner.ops).insert(lease.slot, Arc::clone(&op));
        // The Release store of SUBMITTED publishes the payload and header
        // writes above to the server's claiming CAS.
        header.state.store(state::SUBMITTED, Ordering::Release);
        let pushed = {
            let _guard = lock(&self.inner.submit_lock);
            self.inner
                .submit_ring
                .try_push(pack_submit(lease.slot, lease.seq))
        };
        if !pushed {
            // Cannot happen for a well-behaved pairing (ring capacity ≥
            // slot count ≥ in-flight ops), but recover cleanly anyway.
            lock(&self.inner.ops).remove(&lease.slot);
            self.inner.credits.fetch_add(1, Ordering::AcqRel);
            lease.submitted = true; // skip the drop-path double release
            self.inner.release_slot(lease.slot, false);
            return Err(ServeError::Overloaded {
                queue_capacity: self.inner.queue_capacity,
                retry_after_us: self.inner.retry_hint_us(),
            });
        }
        if let Some(bell) = &self.inner.submit_bell {
            bell.signal();
        }
        let ticket = WireTicket {
            inner: Arc::clone(&self.inner),
            op,
            slot: lease.slot,
            len: lease.len,
            submitted_at: Instant::now(),
        };
        lease.submitted = true;
        Ok(ticket)
    }

    /// Drain any pending completions, waking their tickets. Blocks up to
    /// `timeout` on the completion doorbell when one is configured (and
    /// there is nothing to reap immediately), watching the control stream
    /// beside it: a server hangup marks the session dead.
    pub fn pump(&self, timeout: Duration) {
        self.inner.pump(timeout);
    }

    /// Hostile-client simulator for adversarial tests: push a raw entry
    /// onto the submit ring (bypassing every client-side check) and ring
    /// the doorbell. Returns whether the ring accepted it.
    #[doc(hidden)]
    pub fn inject_raw_submit(&self, entry: u64) -> bool {
        let pushed = {
            let _guard = lock(&self.inner.submit_lock);
            self.inner.submit_ring.try_push(entry)
        };
        if let Some(bell) = &self.inner.submit_bell {
            bell.signal();
        }
        pushed
    }

    /// Remaining submission credits (tests and diagnostics).
    pub fn credits(&self) -> u64 {
        self.inner.credits.load(Ordering::Acquire)
    }

    /// In-flight (submitted, uncompleted) operations.
    pub fn inflight(&self) -> usize {
        lock(&self.inner.ops).len()
    }
}

fn lease_lane(lane: Lane) -> u32 {
    match lane {
        Lane::Interactive => 0,
        Lane::Bulk => 1,
    }
}

fn lane_from_wire(raw: u32) -> Lane {
    if raw == 1 {
        Lane::Bulk
    } else {
        Lane::Interactive
    }
}

impl ClientInner {
    fn retry_hint_us(&self) -> u64 {
        let ewma = self.latency_ewma_us.load(Ordering::Relaxed);
        (ewma / 2).clamp(DEFAULT_RETRY_AFTER_US, 1_000_000)
    }

    fn observe_latency(&self, latency_us: u64) {
        // EWMA with α = 1/8, good enough for a backoff hint.
        let old = self.latency_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            latency_us
        } else {
            old - old / 8 + latency_us / 8
        };
        self.latency_ewma_us.store(new, Ordering::Relaxed);
    }

    fn release_slot(&self, slot: u32, return_credit: bool) {
        let header = self.seg.header(slot as usize);
        header.state.store(state::FREE, Ordering::Release);
        let layout = self.seg.layout();
        let class_index = class_of_slot(layout, slot);
        lock(&self.free)[class_index].push(slot);
        if return_credit {
            self.credits.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Mark the transport dead: every pending and future op fails with
    /// [`ServeError::Protocol`] instead of waiting on a peer that is gone.
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        for (_, op) in lock(&self.ops).drain() {
            let mut slot = lock(&op.result);
            if slot.is_none() {
                *slot = Some((code::PROTOCOL, 0));
            }
        }
    }

    /// Block up to `timeout` for the completion doorbell, or for the
    /// server's end of the control stream to hang up (which marks the
    /// session dead).
    fn await_peer(&self, timeout: Duration) {
        if self.complete_bell.is_none() && self.peer.is_none() {
            std::thread::sleep(timeout.min(Duration::from_micros(200)));
            return;
        }
        // `poll` ignores a negative fd, so a missing bell or stream
        // watches nothing.
        let watch = |fd: Option<RawFd>| PollFd {
            fd: fd.unwrap_or(-1),
            events: POLLIN,
            revents: 0,
        };
        let mut fds = [
            watch(self.complete_bell.as_ref().map(EventFd::raw_fd)),
            watch(self.peer.as_ref().map(AsRawFd::as_raw_fd)),
        ];
        if poll(&mut fds, Some(timeout)).is_err() {
            return;
        }
        if let Some(bell) = &self.complete_bell {
            if fds[0].revents & POLLIN != 0 {
                bell.drain();
            }
        }
        if let Some(peer) = &self.peer {
            if peer_gone(peer, fds[1].revents) {
                self.mark_dead();
            }
        }
    }

    fn pump(&self, timeout: Duration) {
        let mut entries = Vec::new();
        self.complete_ring
            .drain_into(&mut entries, 2 * self.complete_ring.capacity() as usize);
        if entries.is_empty() {
            self.await_peer(timeout);
            self.complete_ring
                .drain_into(&mut entries, 2 * self.complete_ring.capacity() as usize);
        }
        if entries.is_empty() {
            return;
        }
        let mut ops = lock(&self.ops);
        for entry in entries {
            let (slot, seq16, code) = unpack_complete(entry);
            let matching = ops
                .get(&slot)
                .is_some_and(|op| (op.seq & 0xffff) as u16 == seq16);
            if !matching {
                continue; // stale or forged completion; ignore
            }
            let op = ops.remove(&slot).expect("checked above");
            let retry_after_us = if code == code::OVERLOADED {
                // Post-claim outcome: the header legitimately carries the
                // server's hint for this op.
                self.seg
                    .header(slot as usize)
                    .retry_after_us
                    .load(Ordering::Acquire)
            } else {
                0
            };
            let mut result = lock(&op.result);
            if result.is_none() {
                *result = Some((code, retry_after_us));
            }
        }
    }
}

/// Whether a control stream's poll events (or a drain of its readable
/// bytes) show the other side gone: hangup, error, or EOF. Neither side
/// sends anything after the handshake, so stray bytes are discarded.
/// The client's pump and the server's acceptors both watch with this.
pub(crate) fn peer_gone(peer: &UnixStream, revents: i16) -> bool {
    if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
        return true;
    }
    if revents & POLLIN == 0 {
        return false;
    }
    let mut sink = [0u8; 256];
    let mut stream = peer;
    match stream.read(&mut sink) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

/// Which class a slot index belongs to (classes are laid out in order).
fn class_of_slot(layout: &SegmentLayout, slot: u32) -> usize {
    let mut base = 0u32;
    for (index, class) in layout.config.classes.iter().enumerate() {
        if slot < base + class.count {
            return index;
        }
        base += class.count;
    }
    panic!("slot {slot} out of range");
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

struct ServerInner {
    id: u64,
    seg: SharedSegment,
    submit_ring: Ring,
    complete_ring: Ring,
    /// Serializes completion-ring production: the acceptor pushes claim
    /// rejections and admission refusals, and the dispatchers settle
    /// admitted slots through their guards.
    complete_lock: Mutex<()>,
    tenant: Option<TenantId>,
    /// Slots currently claimed (EXECUTING) whose payload the service may
    /// still reference. Drained to zero by the slot guards' release even
    /// if the client dies — the leak-guard the crash test asserts on.
    inflight: AtomicU64,
    /// Doorbell to ring after pushing completions.
    complete_bell: Option<EventFd>,
}

impl Drop for ServerInner {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.inflight.load(Ordering::Acquire),
            0,
            "session dropped with live payload references"
        );
    }
}

/// Server half of a wire session: validates and claims submissions,
/// manufactures zero-copy [`Request`]s, and writes completions back.
#[derive(Clone)]
pub struct ServerSession {
    inner: Arc<ServerInner>,
}

/// A validated, claimed submission: the [`Request`] to hand to the
/// cluster (payload views the client's slot — zero copies; its guard
/// settles the slot when the service releases it) plus the coordinates
/// [`ServerSession::refuse`] needs if admission turns it away.
pub struct WireJob {
    /// Ready to submit to an [`fgserve::FftCluster`] / `FftService`.
    pub request: Request,
    /// Slot index.
    pub slot: u32,
    /// Sequence the completion must carry.
    pub seq: u32,
}

/// What [`ServerSession::claim`] did with one submit-ring entry.
pub enum ClaimOutcome {
    /// Valid: submit it. Once admitted it settles itself; a refusal is
    /// answered with [`ServerSession::refuse`].
    Job(Box<WireJob>),
    /// Rejected with `code`; the completion is already on the ring. The
    /// caller records it (e.g. [`fgserve::FftCluster::record_wire_rejection`]).
    Rejected {
        /// The specific wire code the entry was refused with.
        code: u16,
    },
}

/// Keeps the segment mapped and the in-flight gauge honest while the
/// service holds a [`SharedSlice`] into a slot. This is the
/// [`SliceOwner`] inside [`Payload::Shared`]: its release is the moment
/// the service provably holds no more references into the slot, so it is
/// the one place an admitted request settles — on the thread that
/// finished it, usually a dispatcher.
struct SlotGuard {
    inner: Arc<ServerInner>,
    slot: u32,
    seq: u32,
}

impl SliceOwner for SlotGuard {
    fn release(self: Box<Self>, outcome: Option<Result<(), ServeError>>) {
        self.inner.inflight.fetch_sub(1, Ordering::AcqRel);
        // `None`: the front door refused the request and its caller
        // answers the slot with the refusal.
        if let Some(outcome) = outcome {
            self.inner
                .settle(self.slot, self.seq, outcome.as_ref().copied());
        }
    }
}

impl ServerSession {
    /// Build the server side over a mapped segment.
    pub fn new(
        id: u64,
        seg: SharedSegment,
        tenant: Option<TenantId>,
        complete_bell: Option<EventFd>,
    ) -> Self {
        let submit_ring = seg.submit_ring();
        let complete_ring = seg.complete_ring();
        Self {
            inner: Arc::new(ServerInner {
                id,
                seg,
                submit_ring,
                complete_ring,
                complete_lock: Mutex::new(()),
                tenant,
                inflight: AtomicU64::new(0),
                complete_bell,
            }),
        }
    }

    /// Session id (assigned at accept).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Slots currently claimed whose payload the service may still
    /// reference. Returns to zero once every in-flight request settles —
    /// including after the client process dies.
    pub fn inflight(&self) -> u64 {
        self.inner.inflight.load(Ordering::Acquire)
    }

    /// Drain pending submit entries (bounded per call; hostile tails
    /// cannot wedge the acceptor).
    pub fn drain_submissions(&self, out: &mut Vec<u64>) {
        self.inner
            .submit_ring
            .drain_into(out, 2 * self.inner.submit_ring.capacity() as usize);
    }

    /// Validate one submit entry and claim its slot. Every reject path
    /// answers on the completion ring with a specific code and touches
    /// the slot header only when the claim CAS was actually won — a
    /// garbage entry can never corrupt another request's slot.
    pub fn claim(&self, entry: u64) -> ClaimOutcome {
        let (slot, seq) = unpack_submit(entry);
        let total = self.inner.seg.layout().total_slots();
        if slot as usize >= total {
            // No header to consult; answer with the entry's own identity.
            self.inner.push_completion(slot, seq, code::PROTOCOL);
            return ClaimOutcome::Rejected {
                code: code::PROTOCOL,
            };
        }
        let header = self.inner.seg.header(slot as usize);
        if header.seq.load(Ordering::Acquire) != seq {
            self.inner.push_completion(slot, seq, code::STALE_SEQUENCE);
            return ClaimOutcome::Rejected {
                code: code::STALE_SEQUENCE,
            };
        }
        if header
            .state
            .compare_exchange(
                state::SUBMITTED,
                state::EXECUTING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            self.inner.push_completion(slot, seq, code::BAD_SLOT_STATE);
            return ClaimOutcome::Rejected {
                code: code::BAD_SLOT_STATE,
            };
        }
        // Claim won. Re-check the sequence now that the slot is frozen: a
        // racing re-submission between the check above and the CAS means
        // this entry was stale after all — settle the *live* submission
        // (its seq) with PROTOCOL rather than strand it.
        let live_seq = header.seq.load(Ordering::Acquire);
        if live_seq != seq {
            self.inner.complete_slot(slot, live_seq, code::PROTOCOL, 0);
            return ClaimOutcome::Rejected {
                code: code::PROTOCOL,
            };
        }
        let n_log2 = header.n_log2.load(Ordering::Acquire);
        if !(1..=proto::MAX_N_LOG2).contains(&n_log2) {
            self.inner.complete_slot(slot, seq, code::BAD_PLAN_KEY, 0);
            return ClaimOutcome::Rejected {
                code: code::BAD_PLAN_KEY,
            };
        }
        let kind = match proto::decode_kind(
            header.kind_tag.load(Ordering::Acquire),
            header.rows_log2.load(Ordering::Acquire),
            header.cols_log2.load(Ordering::Acquire),
        ) {
            Ok(kind) => kind,
            Err(code) => {
                self.inner.complete_slot(slot, seq, code, 0);
                return ClaimOutcome::Rejected { code };
            }
        };
        if kind.validate(n_log2).is_err() {
            self.inner.complete_slot(slot, seq, code::BAD_PLAN_KEY, 0);
            return ClaimOutcome::Rejected {
                code: code::BAD_PLAN_KEY,
            };
        }
        let buffer_len = kind.buffer_len(n_log2);
        if buffer_len > self.inner.seg.slot_capacity(slot as usize) {
            self.inner.complete_slot(slot, seq, code::BAD_SIZE_CLASS, 0);
            return ClaimOutcome::Rejected {
                code: code::BAD_SIZE_CLASS,
            };
        }
        let lane = lane_from_wire(header.lane.load(Ordering::Acquire));
        let deadline_rel_us = header.deadline_rel_us.load(Ordering::Acquire);
        let deadline =
            (deadline_rel_us > 0).then(|| Instant::now() + Duration::from_micros(deadline_rel_us));
        self.inner.inflight.fetch_add(1, Ordering::AcqRel);
        let guard = Box::new(SlotGuard {
            inner: Arc::clone(&self.inner),
            slot,
            seq,
        });
        // SAFETY: the payload area of a claimed (EXECUTING) slot belongs
        // exclusively to the server until it marks the slot DONE — which
        // happens only in the guard's release, when the service's
        // `SharedSlice` drops, or in `refuse`, after a refused request
        // (and its slice) is gone. The pointer/length come from the
        // locally computed layout, not from shared memory, so a hostile
        // client cannot fake geometry. The guard's `Arc<ServerInner>`
        // keeps the mapping alive even if the session is dropped from the
        // registry (client death) while the request is still in flight.
        let shared = unsafe {
            SharedSlice::new(self.inner.seg.payload_ptr(slot as usize), buffer_len, guard)
        };
        let request = Request {
            buffer: Payload::Shared(shared),
            n: 1usize << n_log2,
            kind,
            deadline,
            tenant: self.inner.tenant,
            lane,
        };
        ClaimOutcome::Job(Box::new(WireJob { request, slot, seq }))
    }

    /// Answer a claimed slot whose request the cluster refused at
    /// admission (the refused request, and with it the payload reference,
    /// is already gone). Admitted requests settle themselves when the
    /// service releases their payload; calling this for one would answer
    /// it twice.
    pub fn refuse(&self, slot: u32, seq: u32, error: &ServeError) {
        self.inner.settle(slot, seq, Err(error));
    }
}

impl ServerInner {
    /// Settle a claimed slot with its request's outcome.
    fn settle(&self, slot: u32, seq: u32, outcome: Result<(), &ServeError>) {
        let (code, retry) = match outcome {
            Ok(()) => (code::OK, 0),
            Err(error) => {
                let retry = match error {
                    ServeError::Overloaded { retry_after_us, .. } => {
                        if *retry_after_us > 0 {
                            *retry_after_us
                        } else {
                            DEFAULT_RETRY_AFTER_US
                        }
                    }
                    _ => 0,
                };
                (proto::error_to_code(error), retry)
            }
        };
        self.complete_slot(slot, seq, code, retry);
    }

    /// Post-claim settle: mirror the outcome into the header, flip the
    /// slot to DONE, answer on the completion ring, ring the bell.
    fn complete_slot(&self, slot: u32, seq: u32, code: u16, retry_after_us: u64) {
        let header = self.seg.header(slot as usize);
        header.error_code.store(code as u32, Ordering::Relaxed);
        header
            .retry_after_us
            .store(retry_after_us, Ordering::Relaxed);
        header.state.store(state::DONE, Ordering::Release);
        self.push_completion(slot, seq, code);
    }

    /// Pre-claim answer: completion-ring entry only, header untouched.
    fn push_completion(&self, slot: u32, seq: u32, code: u16) {
        let pushed = {
            let _guard = lock(&self.complete_lock);
            self.complete_ring.try_push(pack_complete(slot, seq, code))
        };
        // A full completion ring means the client scribbled on the ring
        // counters (an honest client drains ahead of the slot bound);
        // dropping the answer only harms the scribbler.
        let _ = pushed;
        if let Some(bell) = &self.complete_bell {
            bell.signal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{SegmentConfig, SegmentLayout, SlotClass};
    use crate::ring::{SharedSegment, SlotHeader};
    use fgserve::{FftService, ServeConfig};
    use fgsupport::shm::MemorySegment;

    fn pair() -> (ClientSession, ServerSession) {
        pair_with(SegmentConfig::default_classes())
    }

    fn pair_with(config: SegmentConfig) -> (ClientSession, ServerSession) {
        let layout = SegmentLayout::new(config);
        let mem = MemorySegment::create(layout.total_len).expect("segment");
        let seg = SharedSegment::new(mem, layout).expect("view");
        seg.init_magic();
        let client = ClientSession::new(seg.clone(), 64, 256, None, None, None);
        let server = ServerSession::new(1, seg, None, None);
        (client, server)
    }

    fn service() -> FftService {
        FftService::start(ServeConfig {
            queue_capacity: 64,
            max_batch: 4,
            workers: 2,
            dispatchers: 1,
            ..ServeConfig::default()
        })
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.19).sin(), (i as f64 * 0.37).cos()))
            .collect()
    }

    /// Pull exactly one valid job out of the server side.
    fn claim_one(server: &ServerSession) -> Box<WireJob> {
        let mut entries = Vec::new();
        server.drain_submissions(&mut entries);
        assert_eq!(entries.len(), 1, "one submission pending");
        match server.claim(entries[0]) {
            ClaimOutcome::Job(job) => job,
            ClaimOutcome::Rejected { code } => panic!("unexpected rejection: code {code}"),
        }
    }

    #[test]
    fn round_trip_is_zero_copy_and_correct() {
        let (client, server) = pair();
        let service = service();
        let n = 1 << 10;
        let input = signal(n);
        let expect = fgfft::reference::recursive_fft(&input);

        let mut lease = client.alloc(TransformKind::C2C, n).expect("slot");
        lease.copy_from_slice(&input);
        let client_ptr = lease.as_ptr();
        let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");

        let job = claim_one(&server);
        // THE zero-copy assertion: the service sees the client's bytes at
        // the client's address — no payload memcpy anywhere on the path.
        match &job.request.buffer {
            Payload::Shared(shared) => assert_eq!(
                shared.as_ptr(),
                client_ptr,
                "payload pointer must be the slot itself"
            ),
            other => panic!("expected a shared payload, got {other:?}"),
        }
        let service_ticket = service.submit(job.request).expect("admitted");
        let outcome = service_ticket.wait();
        match outcome {
            Ok(response) => {
                match &response.buffer {
                    Payload::Shared(shared) => assert_eq!(
                        shared.as_ptr(),
                        client_ptr,
                        "response still views the same slot"
                    ),
                    other => panic!("expected a shared payload, got {other:?}"),
                }
                // Dropping the response releases the service's last
                // reference into the slot, which settles it.
                drop(response);
            }
            Err(e) => panic!("transform failed: {e}"),
        }
        assert_eq!(server.inflight(), 0, "guard released at settlement");

        let response = ticket.wait().expect("completed over the wire");
        assert!(fgfft::rms_error(&response, &expect) < 1e-9);
        drop(response);
        assert_eq!(client.inflight(), 0);
        assert_eq!(client.credits(), 64, "credit returned");
        service.shutdown();
    }

    #[test]
    fn out_of_slots_is_overloaded_with_retry_hint_not_a_block() {
        let (client, _server) = pair_with(SegmentConfig {
            classes: vec![SlotClass {
                len_log2: 8,
                count: 2,
            }],
        });
        let a = client.alloc(TransformKind::C2C, 256).expect("slot 1");
        let _b = client.alloc(TransformKind::C2C, 256).expect("slot 2");
        match client.alloc(TransformKind::C2C, 256) {
            Err(ServeError::Overloaded { retry_after_us, .. }) => {
                assert!(retry_after_us > 0, "retry-after hint must be present");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(a);
        client.alloc(TransformKind::C2C, 256).expect("slot freed");
    }

    #[test]
    fn exhausted_credits_are_overloaded() {
        let (client, _server) = {
            let layout = SegmentLayout::new(SegmentConfig::default_classes());
            let mem = MemorySegment::create(layout.total_len).expect("segment");
            let seg = SharedSegment::new(mem, layout).expect("view");
            (
                ClientSession::new(seg.clone(), 1, 256, None, None, None),
                ServerSession::new(1, seg, None, None),
            )
        };
        let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
        lease.iter_mut().for_each(|s| *s = Complex64::ZERO);
        let _ticket = client
            .submit(lease, SubmitOpts::default())
            .expect("credit 1");
        let lease = client.alloc(TransformKind::C2C, 256).expect("slots remain");
        match client.submit(lease, SubmitOpts::default()) {
            Err(ServeError::Overloaded { retry_after_us, .. }) => {
                assert!(retry_after_us > 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn alloc_rejects_what_no_class_can_hold() {
        let (client, _server) = pair();
        // Largest default class is 2^14; ask for 2^20.
        match client.alloc(TransformKind::C2C, 1 << 20) {
            Err(ServeError::BadRequest(why)) => assert!(why.contains("size class"), "{why}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert!(matches!(
            client.alloc(TransformKind::C2C, 100),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn server_rejects_garbage_entries_with_specific_codes() {
        let (client, server) = pair();
        let _honest_ticket = {
            // Keep one honest neighbor in flight to prove isolation.
            let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
            lease.iter_mut().for_each(|s| *s = Complex64::ONE);
            client.submit(lease, SubmitOpts::default()).expect("honest")
        };
        let honest_job = claim_one(&server);

        // 1. Out-of-range slot index.
        match server.claim(pack_submit(9999, 1)) {
            ClaimOutcome::Rejected { code } => assert_eq!(code, code::PROTOCOL),
            ClaimOutcome::Job(_) => panic!("garbage index must not claim"),
        }
        // 2. Stale sequence on a live slot.
        let live_slot = honest_job.slot;
        match server.claim(pack_submit(live_slot, honest_job.seq.wrapping_add(7))) {
            ClaimOutcome::Rejected { code } => assert_eq!(code, code::STALE_SEQUENCE),
            ClaimOutcome::Job(_) => panic!("stale seq must not claim"),
        }
        // 3. Replay of the already-claimed entry: slot is EXECUTING now.
        match server.claim(pack_submit(live_slot, honest_job.seq)) {
            ClaimOutcome::Rejected { code } => assert_eq!(code, code::BAD_SLOT_STATE),
            ClaimOutcome::Job(_) => panic!("replay must not claim"),
        }
        // The honest request is untouched by all of the above: its slot is
        // still EXECUTING with its payload intact.
        match &honest_job.request.buffer {
            Payload::Shared(shared) => {
                assert!(shared.iter().all(|s| *s == Complex64::ONE));
            }
            other => panic!("expected shared payload, got {other:?}"),
        }
        drop(honest_job); // releases the claim guard (payload reference gone)
        assert_eq!(server.inflight(), 0);
    }

    #[test]
    fn garbage_headers_reject_with_plan_and_class_codes() {
        let (client, server) = pair_with(SegmentConfig {
            classes: vec![SlotClass {
                len_log2: 8,
                count: 4,
            }],
        });
        // Craft a malicious submission by hand: allocate honestly, then
        // scribble the header before the server claims.
        let scribble = |f: &dyn Fn(&SlotHeader)| {
            let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
            lease.iter_mut().for_each(|s| *s = Complex64::ZERO);
            let slot = lease.slot();
            let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");
            f(client.inner.seg.header(slot as usize));
            let mut entries = Vec::new();
            server.drain_submissions(&mut entries);
            assert_eq!(entries.len(), 1);
            let outcome = server.claim(entries[0]);
            let code = match outcome {
                ClaimOutcome::Rejected { code } => code,
                ClaimOutcome::Job(_) => panic!("scribbled header must be rejected"),
            };
            // The client still gets a completion and its slot back.
            match ticket.wait_timeout(Duration::from_secs(5)) {
                Ok(Err(ServeError::Protocol { .. })) => {}
                other => panic!("expected a Protocol error, got {other:?}"),
            }
            code
        };
        // Out-of-range plan key (absurd n_log2).
        let code_a = scribble(&|h: &SlotHeader| {
            h.n_log2.store(60, Ordering::Release);
        });
        assert_eq!(code_a, code::BAD_PLAN_KEY);
        // Unknown kind tag.
        let code_b = scribble(&|h: &SlotHeader| {
            h.kind_tag.store(77, Ordering::Release);
        });
        assert_eq!(code_b, code::BAD_PLAN_KEY);
        // Declared size that does not fit the slot's class.
        let code_c = scribble(&|h: &SlotHeader| {
            h.n_log2.store(12, Ordering::Release); // 4096 > 256-sample class
        });
        assert_eq!(code_c, code::BAD_SIZE_CLASS);
        // Inconsistent 2-D shape.
        let code_d = scribble(&|h: &SlotHeader| {
            h.kind_tag.store(proto::kind_tag::C2C2D, Ordering::Release);
            h.rows_log2.store(3, Ordering::Release);
            h.cols_log2.store(3, Ordering::Release); // 3+3 != 8
        });
        assert_eq!(code_d, code::BAD_PLAN_KEY);
        // After all that abuse the session still serves honest traffic.
        let service = service();
        let n = 256;
        let input = signal(n);
        let mut lease = client.alloc(TransformKind::C2C, n).expect("slot");
        lease.copy_from_slice(&input);
        let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");
        let job = claim_one(&server);
        let outcome = service.submit(job.request).expect("admitted").wait();
        drop(outcome.expect("completed"));
        let response = ticket.wait().expect("server survived the abuse");
        assert!(fgfft::rms_error(&response, &fgfft::reference::recursive_fft(&input)) < 1e-9);
        service.shutdown();
    }

    #[test]
    fn service_errors_travel_back_as_their_own_kind() {
        let (client, server) = pair();
        let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
        lease.iter_mut().for_each(|s| *s = Complex64::ZERO);
        let ticket = client
            .submit(
                lease,
                SubmitOpts {
                    deadline: Some(Duration::from_micros(1)),
                    ..SubmitOpts::default()
                },
            )
            .expect("submit");
        let job = claim_one(&server);
        // Let the deadline lapse before the service ever sees it; the
        // service will fail it with DeadlineExceeded at dispatch, and the
        // failed job's payload guard carries that code to the client.
        std::thread::sleep(Duration::from_millis(5));
        let service = service();
        drop(service.submit(job.request).expect("admitted"));
        match settled(ticket) {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded over the wire, got {other:?}"),
        }
        // The guard drops the gauge before it answers the ring.
        assert_eq!(server.inflight(), 0);
        let stats = service.shutdown();
        assert_eq!(stats.deadline_missed, 1);
        assert_no_more_completions(&client);
    }

    /// The ticket's outcome; a slot nobody settles fails the test instead
    /// of hanging it.
    fn settled(ticket: WireTicket) -> Result<WireResponse, ServeError> {
        match ticket.wait_timeout(Duration::from_secs(10)) {
            Ok(outcome) => outcome,
            Err(ticket) => panic!("{ticket:?} not settled within 10 s"),
        }
    }

    /// Every completion the server pushed has been reaped: nothing was
    /// answered twice.
    fn assert_no_more_completions(client: &ClientSession) {
        let mut extra = Vec::new();
        client.inner.complete_ring.drain_into(&mut extra, 64);
        assert!(extra.is_empty(), "slot answered more than once: {extra:?}");
    }

    #[test]
    fn admitted_requests_settle_on_the_dispatcher_once() {
        let (client, server) = pair();
        let service = service();
        let n = 1 << 9;
        let inputs: Vec<Vec<Complex64>> = (0..6)
            .map(|k| signal(n).iter().map(|s| s.scale(k as f64 + 1.0)).collect())
            .collect();
        let tickets: Vec<WireTicket> = inputs
            .iter()
            .map(|input| {
                let mut lease = client.alloc(TransformKind::C2C, n).expect("slot");
                lease.copy_from_slice(input);
                client.submit(lease, SubmitOpts::default()).expect("submit")
            })
            .collect();
        let mut entries = Vec::new();
        server.drain_submissions(&mut entries);
        assert_eq!(entries.len(), inputs.len());
        for entry in entries {
            let ClaimOutcome::Job(job) = server.claim(entry) else {
                panic!("honest entry rejected");
            };
            // As the acceptor does: submit and drop the ticket. Nothing on
            // this thread settles the slot.
            drop(service.submit(job.request).expect("admitted"));
        }
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let response = settled(ticket).expect("settled by its dispatcher");
            assert!(fgfft::rms_error(&response, &fgfft::reference::recursive_fft(input)) < 1e-9);
        }
        assert_eq!(server.inflight(), 0);
        assert_eq!(client.inflight(), 0);
        let stats = service.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_no_more_completions(&client);
        assert_eq!(client.credits(), 64, "every credit returned");
    }

    #[test]
    fn refused_requests_are_answered_once_by_the_front_door() {
        use fgserve::fault::FaultInjector;
        let (client, server) = pair();
        // One dispatcher that dies holding its first batch and is never
        // respawned, over a one-entry queue: the first request is
        // abandoned, the second fills the queue, the third is refused.
        let service = FftService::start(ServeConfig {
            queue_capacity: 1,
            max_batch: 1,
            workers: 1,
            dispatchers: 1,
            max_dispatcher_restarts: 0,
            fault: FaultInjector::kill_dispatcher_on_batch(1),
            ..ServeConfig::default()
        });
        let submit_one = || {
            let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
            lease.iter_mut().for_each(|s| *s = Complex64::ONE);
            let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");
            (ticket, claim_one(&server))
        };
        // Abandoned by the dying dispatcher: its drop-guard fails the job,
        // and the payload guard answers the slot from the unwinding thread.
        let (abandoned, job) = submit_one();
        drop(service.submit(job.request).expect("admitted"));
        match settled(abandoned) {
            Err(ServeError::Internal { .. }) => {}
            other => panic!("expected Internal, got {other:?}"),
        }
        let filler = service
            .submit(Request::new(vec![Complex64::ONE; 256]))
            .expect("the queue's one entry");
        // Refused at admission: the request and its guard are gone before
        // `submit` returns, so only the front door answers the slot.
        let (refused, job) = submit_one();
        let error = service.submit(job.request).expect_err("queue is full");
        assert!(matches!(error, ServeError::Overloaded { .. }), "{error:?}");
        assert_eq!(server.inflight(), 0, "refused guard released");
        server.refuse(job.slot, job.seq, &error);
        match settled(refused) {
            Err(ServeError::Overloaded { retry_after_us, .. }) => assert!(retry_after_us > 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_no_more_completions(&client);
        assert_eq!(client.inflight(), 0);
        // Shutdown serves the filler inline; the books balance.
        let stats = service.shutdown();
        filler.wait().expect("served at shutdown");
        assert_eq!(stats.accepted, stats.settled());
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn mark_dead_fails_pending_ops() {
        let (client, _server) = pair();
        let mut lease = client.alloc(TransformKind::C2C, 256).expect("slot");
        lease.iter_mut().for_each(|s| *s = Complex64::ZERO);
        let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");
        client.inner.mark_dead();
        match ticket.wait() {
            Err(ServeError::Protocol { reason }) => {
                assert!(reason.contains("connection lost"), "{reason}");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
        assert!(matches!(
            client
                .alloc(TransformKind::C2C, 256)
                .and_then(|lease| client.submit(lease, SubmitOpts::default()).map(|_| ())),
            Err(ServeError::Protocol { .. })
        ));
    }
}
