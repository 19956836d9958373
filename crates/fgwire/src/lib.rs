//! # fgwire: cross-process FFT serving over a shared-memory ring
//!
//! The in-process [`fgserve`] stack serves transforms to threads that
//! share its address space. `fgwire` extends that boundary across
//! processes without giving up the zero-copy property: a client maps a
//! shared segment, writes samples straight into a leased slot, and the
//! server hands that same slot to the cluster as a
//! [`fgserve::Payload::Shared`] lease — submit-to-execute with **zero
//! payload memcpy** in either direction.
//!
//! ## Architecture
//!
//! ```text
//!  client process                        server process (fgwired)
//!  ┌───────────────┐  Unix socket        ┌───────────────────────┐
//!  │ fgwire::Client│◀───handshake───────▶│ listener (SCM_RIGHTS) │
//!  │               │   (fds: segment,    └──────────┬────────────┘
//!  │  SlotLease    │    doorbells)                  │ register
//!  │  WireTicket   │                     ┌──────────▼────────────┐
//!  └──────┬────────┘                     │ acceptors             │
//!         │ mmap                         │  claim → FftCluster   │
//!  ┌──────▼────────────────────────────  │ dispatchers           │
//!  │ shared segment: submit ring ──────▶ │  slot guard → DONE    │
//!  │   complete ring ◀─────────────────  └──────────┬────────────┘
//!  │   slot headers + payload slots  ◀──────────────┘
//!  └────────────────────────────────────
//! ```
//!
//! The server runs a listener and its acceptors; an admitted slot
//! settles on the cluster dispatcher that ran it, when the service
//! drops its last reference into the slot. The client runs no thread:
//! waiting on a ticket pumps the completion ring and watches the
//! control socket for the server's hangup.
//!
//! The layers, bottom up:
//!
//! - [`proto`] — wire constants, error codes, segment geometry, the
//!   JSON control-channel frames. Geometry is always *computed locally*
//!   from the validated handshake config; nothing trusted is read from
//!   shared memory.
//! - [`ring`] — the mapped segment view: slot headers, the two SPSC
//!   rings, entry packing. All shared-memory access is atomic.
//! - [`session`] — the protocol state machines with no transport:
//!   [`session::ClientSession`] (alloc/submit/pump) and
//!   [`session::ServerSession`] (claim/complete).
//! - [`client`] — [`Client`]: connect over a Unix socket, then a
//!   blocking + deadline submit API mirroring the in-process
//!   [`fgserve::Request`] surface.
//! - [`server`] — [`server::WireServer`]: the embeddable server
//!   (listener and acceptors) that `fgwired` wraps.
//!
//! ## Failure semantics
//!
//! Ring-full and out-of-credit conditions surface as
//! [`fgserve::ServeError::Overloaded`] with a retry-after hint — never a
//! block. Malformed submissions are answered with specific
//! [`fgserve::ServeError::Protocol`] codes and can never corrupt a
//! neighboring slot. A dying client is detected by socket HUP; every
//! slot it had in flight is reclaimed once the service settles it, so
//! cluster accounting stays balanced across crashes. A dying server is
//! detected the same way by the client's own wait, which fails the
//! pending tickets with [`fgserve::ServeError::Protocol`].

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod ring;
pub mod server;
pub mod session;

pub use client::{Client, ClientConfig};
pub use server::{WireServer, WireServerConfig};
pub use session::{ClientSession, ServerSession, SlotLease, SubmitOpts, WireResponse, WireTicket};
