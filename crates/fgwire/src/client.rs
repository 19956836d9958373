//! The wire client: connect to a [`crate::server::WireServer`] (or the
//! `fgwired` binary), lease slots in a segment this process created,
//! and submit transforms that execute in the server with zero payload
//! copies between submission and execution.
//!
//! The client owns the segment: it creates the memfd, maps it, and
//! hands the fd (plus two eventfd doorbells) to the server in the hello
//! frame via `SCM_RIGHTS`. The client runs no thread of its own: waiting
//! on a ticket pumps the completion ring and watches the control socket
//! in the same `poll`, so if the server goes away every pending
//! operation fails with [`fgserve::ServeError::Protocol`] rather than
//! hanging. The socket stays open until the session's last lease,
//! ticket or response drops.

use crate::proto::{self, SegmentConfig, SegmentLayout};
use crate::ring::SharedSegment;
use crate::session::{ClientSession, SlotLease, SubmitOpts, WireTicket};
use fgfft::workload::TransformKind;
use fgfft::Complex64;
use fgserve::admission::TenantId;
use fgserve::ServeError;
use fgsupport::json::Value;
use fgsupport::shm::{send_with_fds, EventFd, MemorySegment};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Wire-client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket path the server listens on.
    pub socket_path: PathBuf,
    /// Slot size classes to carve the segment into. The server validates
    /// and mirrors this geometry; it is never read from shared memory.
    pub classes: SegmentConfig,
    /// Tenant identity for QoS accounting; `None` is untagged traffic.
    pub tenant: Option<TenantId>,
}

impl ClientConfig {
    /// Config for `socket_path` with the default size classes.
    pub fn at(socket_path: impl Into<PathBuf>) -> Self {
        Self {
            socket_path: socket_path.into(),
            classes: SegmentConfig::default_classes(),
            tenant: None,
        }
    }
}

/// A connected wire client. Cheap to share behind a reference; submit
/// paths never block on the server (overload surfaces as
/// [`ServeError::Overloaded`] with a retry-after hint).
pub struct Client {
    session: ClientSession,
    session_id: u64,
}

impl Client {
    /// Connect: create and map the segment, perform the hello/accept
    /// handshake (passing segment + doorbell fds), and hand the control
    /// socket to the session, whose pump watches it for hangup.
    pub fn connect(config: ClientConfig) -> io::Result<Self> {
        config
            .classes
            .validate()
            .map_err(|why| io::Error::other(format!("bad size classes: {why}")))?;
        let layout = SegmentLayout::new(config.classes.clone());
        let segment = MemorySegment::create(layout.total_len)?;
        let seg = SharedSegment::new(segment, layout).map_err(io::Error::other)?;
        seg.init_magic();
        let submit_bell = EventFd::new()?;
        let complete_bell = EventFd::new()?;
        let stream = UnixStream::connect(&config.socket_path)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;

        let hello = Value::obj(vec![
            ("type", Value::Str("hello".to_string())),
            ("version", Value::Num(proto::PROTO_VERSION as f64)),
            ("classes", config.classes.to_json()),
            (
                "tenant",
                Value::Num(config.tenant.map(|t| t.0).unwrap_or(0) as f64),
            ),
        ]);
        let body = hello.to_string_pretty();
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body.as_bytes());
        send_with_fds(
            &stream,
            &frame,
            &[seg.raw_fd(), submit_bell.raw_fd(), complete_bell.raw_fd()],
        )?;

        let accept = proto::read_frame(&mut &stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            )
        })?;
        match accept.get("type").and_then(Value::as_str) {
            Some("accept") => {}
            Some("error") => {
                let reason = accept
                    .get("reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified");
                return Err(io::Error::other(format!(
                    "server refused session: {reason}"
                )));
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected handshake frame type {other:?}"
                )));
            }
        }
        let session_id = accept.get("session").and_then(Value::as_u64).unwrap_or(0);
        let credits = accept.get("credits").and_then(Value::as_u64).unwrap_or(1);
        let queue_capacity = accept
            .get("queue_capacity")
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize;

        stream.set_nonblocking(true)?;
        let session = ClientSession::new(
            seg,
            credits,
            queue_capacity,
            Some(submit_bell),
            Some(complete_bell),
            Some(stream),
        );
        Ok(Self {
            session,
            session_id,
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The protocol session (slot leases, credits, pump).
    pub fn session(&self) -> &ClientSession {
        &self.session
    }

    /// Lease a slot for an `n`-point transform of `kind` and write the
    /// samples directly into shared memory — the zero-copy path.
    pub fn alloc(&self, kind: TransformKind, n: usize) -> Result<SlotLease, ServeError> {
        self.session.alloc(kind, n)
    }

    /// Submit a filled lease; mirrors the in-process request surface
    /// (kind and size travel in the slot header, deadline and lane in
    /// `opts`, tenant fixed at connect).
    pub fn submit(&self, lease: SlotLease, opts: SubmitOpts) -> Result<WireTicket, ServeError> {
        self.session.submit(lease, opts)
    }

    /// Convenience round trip: copy `input` into a fresh lease, submit,
    /// block for the result, and copy it back out. (The copies here are
    /// at the *client API boundary*; the submit-to-execute path is still
    /// zero-copy. Use [`Client::alloc`] to avoid them entirely.)
    pub fn call(
        &self,
        kind: TransformKind,
        input: &[Complex64],
        opts: SubmitOpts,
    ) -> Result<Vec<Complex64>, ServeError> {
        let n = match kind {
            TransformKind::R2C | TransformKind::C2R => input.len() * 2,
            _ => input.len(),
        };
        let mut lease = self.alloc(kind, n)?;
        lease.copy_from_slice(input);
        let response = self.submit(lease, opts)?.wait()?;
        Ok(response.to_vec())
    }

    /// Drain pending completions (cooperative; `wait` does this too).
    pub fn pump(&self, timeout: Duration) {
        self.session.pump(timeout);
    }
}
