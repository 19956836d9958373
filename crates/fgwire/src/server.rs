//! The wire server: a Unix-socket front door that maps client segments
//! and feeds claimed slots to an embedded [`FftCluster`] as zero-copy
//! [`fgserve::Payload::Shared`] leases.
//!
//! ## Threading
//!
//! ```text
//! listener ──(handshake, SCM_RIGHTS, mmap)──▶ acceptor[k] ──submit──▶ cluster
//!                                                                       │
//!            completion ring ◀──DONE── slot guard ◀──release── dispatcher
//! ```
//!
//! The server runs `1 + acceptors` threads of its own beside the
//! cluster's dispatchers and supervisors:
//!
//! - **One listener**: accepts connections, validates the hello frame,
//!   maps the segment, registers the session with an acceptor
//!   (round-robin), answers with the accept frame.
//! - **N acceptors**: poll their sessions' submit doorbells and sockets;
//!   drain, validate, claim, and submit to the cluster, dropping the
//!   ticket. A claim rejection or an admission refusal is answered on
//!   the completion ring here. Socket HUP is client death: the session
//!   leaves the poll set and its in-flight slots settle as usual, so
//!   `accepted == completed + deadline_missed + failed` stays balanced.
//!
//! No thread waits on an admitted request. Its payload's slot guard
//! ([`fgserve::SliceOwner`]) settles the slot to DONE and answers the
//! completion ring when the service drops its last reference into the
//! slot — on the dispatcher that ran or failed the request, as the
//! paper's codelet model has the thread that fires a codelet signal its
//! dependents.

use crate::proto::{self, SegmentConfig, SegmentLayout};
use crate::ring::SharedSegment;
use crate::session::{peer_gone, ClaimOutcome, ServerSession, WireJob};
use fgserve::admission::TenantId;
use fgserve::shard::{ClusterConfig, ClusterStats, FftCluster};
use fgsupport::json::{self, Value};
use fgsupport::shm::{poll, EventFd, MemorySegment, PollFd, POLLIN};
use std::io::{self, Read};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire-server configuration.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Unix-domain socket path to listen on (a stale file is replaced).
    pub socket_path: PathBuf,
    /// The embedded cluster serving the transforms.
    pub cluster: ClusterConfig,
    /// Acceptor threads: each owns a poll set of sessions, assigned
    /// round-robin at accept. Admitted requests settle on the cluster's
    /// dispatchers, so acceptors only claim, submit and refuse.
    pub acceptors: usize,
    /// Submission credits granted to each session (its max in-flight).
    pub credits_per_session: u64,
    /// Most sessions admitted at once; further hellos are refused.
    pub max_sessions: usize,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        Self {
            socket_path: std::env::temp_dir().join("fgwired.sock"),
            cluster: ClusterConfig::default(),
            acceptors: 2,
            credits_per_session: 64,
            max_sessions: 64,
        }
    }
}

/// A registered session as the acceptor sees it.
struct SessionHandle {
    session: ServerSession,
    /// Control socket; readable-with-zero-bytes or HUP means the client
    /// died and the session must be retired.
    socket: UnixStream,
    /// Client rings this after pushing submissions.
    submit_bell: EventFd,
}

struct Shared {
    cluster: FftCluster,
    stop: AtomicBool,
    active_sessions: AtomicUsize,
    next_session_id: AtomicU64,
    queue_capacity: usize,
    credits_per_session: u64,
    max_sessions: usize,
}

struct Acceptor {
    /// Sessions pending registration by the listener.
    incoming: Mutex<Vec<SessionHandle>>,
    /// Rung by the listener on registration and by shutdown.
    wakeup: EventFd,
}

/// The embeddable wire server (the `fgwired` binary is a thin wrapper).
/// Listens, maps, serves; [`WireServer::shutdown`] drains and returns
/// the cluster's final statistics.
pub struct WireServer {
    shared: Arc<Shared>,
    socket_path: PathBuf,
    acceptors: Vec<Arc<Acceptor>>,
    listener_thread: Option<JoinHandle<()>>,
    acceptor_threads: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Bind the socket, start the cluster, and spin up the thread tree.
    pub fn start(config: WireServerConfig) -> io::Result<Self> {
        let _ = std::fs::remove_file(&config.socket_path);
        let listener = UnixListener::bind(&config.socket_path)?;
        listener.set_nonblocking(true)?;
        let queue_capacity = config.cluster.base.queue_capacity;
        let shared = Arc::new(Shared {
            cluster: FftCluster::start(config.cluster),
            stop: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            next_session_id: AtomicU64::new(1),
            queue_capacity,
            credits_per_session: config.credits_per_session.max(1),
            max_sessions: config.max_sessions.max(1),
        });
        let acceptor_count = config.acceptors.max(1);
        let mut acceptors = Vec::with_capacity(acceptor_count);
        let mut acceptor_threads = Vec::with_capacity(acceptor_count);
        for index in 0..acceptor_count {
            let acceptor = Arc::new(Acceptor {
                incoming: Mutex::new(Vec::new()),
                wakeup: EventFd::new()?,
            });
            let shared_for_acceptor = Arc::clone(&shared);
            let acceptor_for_thread = Arc::clone(&acceptor);
            acceptor_threads.push(
                std::thread::Builder::new()
                    .name(format!("fgwire-accept-{index}"))
                    .spawn(move || acceptor_loop(shared_for_acceptor, acceptor_for_thread))?,
            );
            acceptors.push(acceptor);
        }
        let shared_for_listener = Arc::clone(&shared);
        let acceptors_for_listener = acceptors.clone();
        let listener_thread = std::thread::Builder::new()
            .name("fgwire-listen".to_string())
            .spawn(move || listener_loop(listener, shared_for_listener, acceptors_for_listener))?;
        Ok(Self {
            shared,
            socket_path: config.socket_path,
            acceptors,
            listener_thread: Some(listener_thread),
            acceptor_threads,
        })
    }

    /// Point-in-time cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        self.shared.cluster.stats()
    }

    /// Sessions currently registered.
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::Acquire)
    }

    /// Stop accepting, retire every session, drain in-flight work, shut
    /// the cluster down, and return the final statistics.
    pub fn shutdown(mut self) -> ClusterStats {
        self.shared.stop.store(true, Ordering::Release);
        for acceptor in &self.acceptors {
            acceptor.wakeup.signal();
        }
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
        for handle in self.acceptor_threads.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
        // Nothing else holds the shared state now; the cluster's drain
        // settles every slot still in flight through its guard.
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.cluster.shutdown(),
            Err(shared) => {
                // A straggler still holds the Arc (should not happen once
                // the threads are joined); report stats without shutdown.
                shared.cluster.stats()
            }
        }
    }
}

fn listener_loop(listener: UnixListener, shared: Arc<Shared>, acceptors: Vec<Arc<Acceptor>>) {
    let mut round_robin = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        let mut fds = [PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        match poll(&mut fds, Some(Duration::from_millis(100))) {
            Ok(0) | Err(_) => continue,
            Ok(_) => {}
        }
        let (stream, _addr) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(_) => continue,
        };
        match handshake(&stream, &shared) {
            Ok(handle) => {
                shared.active_sessions.fetch_add(1, Ordering::AcqRel);
                let acceptor = &acceptors[round_robin % acceptors.len()];
                round_robin += 1;
                acceptor
                    .incoming
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(handle);
                acceptor.wakeup.signal();
            }
            Err(reason) => {
                let frame = Value::obj(vec![
                    ("type", Value::Str("error".to_string())),
                    ("reason", Value::Str(reason)),
                ]);
                let _ = proto::write_frame(&mut &stream, &frame);
            }
        }
    }
}

/// Validate a hello, map the client's segment, and answer with accept.
fn handshake(stream: &UnixStream, shared: &Shared) -> Result<SessionHandle, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("socket setup: {e}"))?;
    if shared.active_sessions.load(Ordering::Acquire) >= shared.max_sessions {
        return Err("session limit reached".to_string());
    }
    let (hello, mut fds) = read_hello(stream).map_err(|e| format!("hello: {e}"))?;
    if fds.len() != 3 {
        return Err(format!("hello must carry 3 fds, got {}", fds.len()));
    }
    if hello.get("type").and_then(Value::as_str) != Some("hello") {
        return Err("first frame must be a hello".to_string());
    }
    let version = hello.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version != proto::PROTO_VERSION {
        return Err(format!(
            "protocol version {version} unsupported (want {})",
            proto::PROTO_VERSION
        ));
    }
    let classes = hello
        .get("classes")
        .ok_or_else(|| "hello missing classes".to_string())?;
    let config = SegmentConfig::from_json(classes)?;
    config.validate()?;
    let tenant = hello
        .get("tenant")
        .and_then(Value::as_u64)
        .filter(|&t| t != 0)
        .map(TenantId);
    let layout = SegmentLayout::new(config);
    let complete_fd = fds.pop().expect("len checked");
    let submit_fd = fds.pop().expect("len checked");
    let segment_fd = fds.pop().expect("len checked");
    let segment = MemorySegment::from_fd(segment_fd, layout.total_len)
        .map_err(|e| format!("segment map: {e}"))?;
    let seg = SharedSegment::new(segment, layout).map_err(|e| format!("segment: {e}"))?;
    if !seg.magic_ok() {
        return Err("segment magic mismatch".to_string());
    }
    let submit_bell = EventFd::from_fd(submit_fd);
    let complete_bell = EventFd::from_fd(complete_fd);
    let id = shared.next_session_id.fetch_add(1, Ordering::AcqRel);
    let session = ServerSession::new(id, seg, tenant, Some(complete_bell));
    let accept = Value::obj(vec![
        ("type", Value::Str("accept".to_string())),
        ("session", Value::Num(id as f64)),
        ("credits", Value::Num(shared.credits_per_session as f64)),
        ("queue_capacity", Value::Num(shared.queue_capacity as f64)),
    ]);
    proto::write_frame(&mut &*stream, &accept).map_err(|e| format!("accept frame: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("socket setup: {e}"))?;
    Ok(SessionHandle {
        session,
        socket: stream.try_clone().map_err(|e| e.to_string())?,
        submit_bell,
    })
}

/// Read the hello frame plus its SCM_RIGHTS fds. The first `recvmsg`
/// carries the fds; the frame body may need further stream reads.
fn read_hello(stream: &UnixStream) -> io::Result<(Value, Vec<std::os::fd::OwnedFd>)> {
    let mut buf = vec![0u8; proto::MAX_FRAME as usize + 4];
    let (mut have, fds) = fgsupport::shm::recv_with_fds(stream, &mut buf)?;
    while have < 4 {
        let got = (&mut &*stream).read(&mut buf[have..])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "hello cut short",
            ));
        }
        have += got;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > proto::MAX_FRAME {
        return Err(io::Error::other(format!("bad hello frame length {len}")));
    }
    let total = 4 + len as usize;
    while have < total {
        let got = (&mut &*stream).read(&mut buf[have..total])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "hello cut short",
            ));
        }
        have += got;
    }
    let body =
        std::str::from_utf8(&buf[4..total]).map_err(|_| io::Error::other("hello is not UTF-8"))?;
    let value = json::parse(body).map_err(|e| io::Error::other(format!("hello parse: {e}")))?;
    Ok((value, fds))
}

fn acceptor_loop(shared: Arc<Shared>, acceptor: Arc<Acceptor>) {
    let mut sessions: Vec<SessionHandle> = Vec::new();
    let mut entries: Vec<u64> = Vec::new();
    loop {
        // Adopt newly registered sessions.
        {
            let mut incoming = acceptor.incoming.lock().unwrap_or_else(|p| p.into_inner());
            sessions.append(&mut incoming);
        }
        if shared.stop.load(Ordering::Acquire) {
            // Retire every session; in-flight requests settle through
            // their slot guards as the cluster drains.
            for handle in sessions.drain(..) {
                shared.active_sessions.fetch_sub(1, Ordering::AcqRel);
                drop(handle);
            }
            return;
        }
        // Poll: wakeup + (submit bell, socket) per session.
        let mut fds = Vec::with_capacity(1 + 2 * sessions.len());
        fds.push(PollFd {
            fd: acceptor.wakeup.raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for handle in &sessions {
            fds.push(PollFd {
                fd: handle.submit_bell.raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.push(PollFd {
                fd: handle.socket.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let _ = poll(&mut fds, Some(Duration::from_millis(100)));
        if fds[0].revents & POLLIN != 0 {
            acceptor.wakeup.drain();
        }
        let mut dead: Vec<usize> = Vec::new();
        for (index, handle) in sessions.iter().enumerate() {
            let bell = &fds[1 + 2 * index];
            if bell.revents & POLLIN != 0 {
                handle.submit_bell.drain();
            }
            // Always drain the submit ring when polled awake — doorbell
            // coalescing means one signal can cover many entries.
            entries.clear();
            handle.session.drain_submissions(&mut entries);
            for &entry in &entries {
                process_entry(&shared, &handle.session, entry);
            }
            // Socket hangup or EOF is client death.
            if peer_gone(&handle.socket, fds[2 + 2 * index].revents) {
                dead.push(index);
            }
        }
        // Retire dead sessions (highest index first so removals stay
        // valid). Their in-flight requests hold the mapping alive through
        // the slot guards, which settle them; the session object itself
        // leaves the poll set now.
        for index in dead.into_iter().rev() {
            let handle = sessions.swap_remove(index);
            shared.active_sessions.fetch_sub(1, Ordering::AcqRel);
            drop(handle);
        }
    }
}

/// Claim one submit entry and route it: into the cluster on success,
/// onto the completion ring with a specific code otherwise.
fn process_entry(shared: &Shared, session: &ServerSession, entry: u64) {
    let WireJob { request, slot, seq } = match session.claim(entry) {
        ClaimOutcome::Job(job) => *job,
        ClaimOutcome::Rejected { .. } => {
            shared.cluster.record_wire_rejection();
            return;
        }
    };
    // Admitted, the ticket drops here: the slot settles when the service
    // releases its payload. Refused (overload, throttle, shutdown…), the
    // request and its payload reference are already gone, so the slot is
    // answered now.
    if let Err(error) = shared.cluster.submit(request) {
        session.refuse(slot, seq, &error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_starts_and_shuts_down_clean() {
        let path = std::env::temp_dir().join(format!("fgwire-test-{}.sock", std::process::id()));
        let server = WireServer::start(WireServerConfig {
            socket_path: path.clone(),
            ..WireServerConfig::default()
        })
        .expect("server starts");
        assert!(path.exists(), "socket bound");
        assert_eq!(server.active_sessions(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 0);
        assert!(!path.exists(), "socket removed at shutdown");
    }

    #[test]
    fn handshake_rejects_framer_garbage() {
        let path =
            std::env::temp_dir().join(format!("fgwire-bad-hello-{}.sock", std::process::id()));
        let server = WireServer::start(WireServerConfig {
            socket_path: path.clone(),
            ..WireServerConfig::default()
        })
        .expect("server starts");
        // A hello with no fds and a bogus body must get an error frame,
        // not a session (and must not wedge the listener).
        let stream = UnixStream::connect(&path).expect("connect");
        let frame = Value::obj(vec![("type", Value::Str("hello".to_string()))]);
        proto::write_frame(&mut &stream, &frame).expect("send");
        let reply = proto::read_frame(&mut &stream)
            .expect("read")
            .expect("frame");
        assert_eq!(reply.get("type").and_then(Value::as_str), Some("error"));
        drop(stream);
        // The listener is still alive for the next client.
        let probe = UnixStream::connect(&path);
        assert!(probe.is_ok(), "listener survived the bad hello");
        server.shutdown();
    }
}
