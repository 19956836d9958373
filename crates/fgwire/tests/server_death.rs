//! Server death, seen from the client: SIGKILL a real `fgwired` while a
//! request is in flight and prove the client's own wait notices.
//!
//! The client runs no thread of its own. Waiting on a ticket polls the
//! completion doorbell and the control socket together, so the hangup
//! the kernel delivers when the server process dies fails the pending
//! ticket with `Protocol { "server connection lost" }` instead of
//! letting it wait forever. The request is a 2^22-point transform, large
//! enough that the server is still planning or executing it when it is
//! killed.

use fgfft::workload::TransformKind;
use fgfft::Complex64;
use fgserve::ServeError;
use fgwire::client::{Client, ClientConfig};
use fgwire::proto::{SegmentConfig, SlotClass};
use fgwire::session::SubmitOpts;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn killing_the_server_fails_the_pending_ticket() {
    let path = std::env::temp_dir().join(format!("fgwire-death-{}.sock", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_fgwired"))
        .arg("--socket")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fgwired");
    let mut ready = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut ready)
        .expect("read the ready line");
    assert!(
        ready.contains("\"ready\": true"),
        "unexpected banner {ready:?}"
    );

    let n_log2 = 22;
    let client = Client::connect(ClientConfig {
        classes: SegmentConfig {
            classes: vec![SlotClass {
                len_log2: n_log2,
                count: 1,
            }],
        },
        ..ClientConfig::at(&path)
    })
    .expect("connect");
    let mut lease = client
        .alloc(TransformKind::C2C, 1 << n_log2)
        .expect("lease");
    for (i, sample) in lease.iter_mut().enumerate() {
        *sample = Complex64::new((i as f64 * 0.37).sin(), 0.0);
    }
    let ticket = client.submit(lease, SubmitOpts::default()).expect("submit");

    child.kill().expect("SIGKILL fgwired");
    child.wait().expect("reap fgwired");
    match ticket.wait_timeout(Duration::from_secs(5)) {
        Ok(Err(ServeError::Protocol { reason })) => {
            assert_eq!(reason, "server connection lost");
        }
        Ok(other) => panic!("expected a lost connection, got {other:?}"),
        Err(_) => panic!("ticket still pending 5 s after the server died"),
    }
    let _ = std::fs::remove_file(&path);
}
