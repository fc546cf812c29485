//! Live export: multi-snapshot JSONL streams and a std-only HTTP
//! endpoint serving the Prometheus text exposition.
//!
//! A long fleet run wants more than one end-of-run dump. This module
//! adds two delivery paths on top of the [`crate::sink`] renderers:
//!
//! * **Snapshot streams** — a JSONL file holding several
//!   [`MetricsSnapshot`]s, each introduced by a `{"kind":"snapshot"}`
//!   marker line carrying a sequence number, the virtual fleet epoch,
//!   and a small deterministic metadata map (fleet state histogram).
//!   The fleet CLI rewrites the stream atomically every epoch, keeping
//!   only the most recent frames — a rotating flight log that
//!   `healthmon metrics` and `healthmon top` can inspect mid-run.
//! * **[`MetricsServer`]** — a background thread on `std::net` that
//!   answers `GET /metrics` with [`crate::render_prometheus`] over a
//!   fresh [`crate::snapshot`]. No HTTP library, no framework: the
//!   request head is read, the path matched, a `Content-Length` response
//!   written. Purely observational like the rest of the crate.

use crate::metrics::MetricsSnapshot;
use crate::sink::{parse_jsonl, render_jsonl, render_prometheus};
use healthmon_serdes::{parse, FromJson, JsonError, ToJson};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One snapshot in a rotating stream: marker metadata plus the full
/// metrics snapshot recorded at that moment.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFrame {
    /// Monotonic frame number within the stream.
    pub seq: u64,
    /// Label of the producer (e.g. `fleet`).
    pub label: String,
    /// Virtual epoch the frame was captured at.
    pub epoch: u64,
    /// Deterministic metadata (name → value), sorted by name; the fleet
    /// publishes its state histogram and incident tallies here.
    pub meta: Vec<(String, f64)>,
    /// The metrics snapshot itself.
    pub snap: MetricsSnapshot,
}

impl SnapshotFrame {
    /// Returns a metadata value by name, if present.
    pub fn meta_value(&self, name: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

healthmon_serdes::json_codec! {
    /// The line that opens each frame of a stream, tagged like the
    /// [`render_jsonl`] lines it precedes.
    enum Marker by kind {
        Snapshot = "snapshot" {
            name: String,
            stable: bool,
            seq: u64,
            epoch: u64,
            meta: Vec<(String, f64)> as healthmon_serdes::entries,
        },
    }
}

/// Renders one frame: the snapshot marker line followed by the ordinary
/// [`render_jsonl`] lines of its snapshot.
pub fn render_frame(frame: &SnapshotFrame) -> String {
    let marker = Marker::Snapshot {
        name: frame.label.clone(),
        stable: false,
        seq: frame.seq,
        epoch: frame.epoch,
        meta: frame.meta.clone(),
    };
    let mut out = marker.to_json().render();
    out.push('\n');
    out.push_str(&render_jsonl(&frame.snap));
    out
}

/// Parses a snapshot stream produced by concatenating [`render_frame`]
/// outputs. A file with no `{"kind":"snapshot"}` marker (a plain
/// single-snapshot dump from `--metrics`) parses as one frame with
/// default metadata, so callers can treat both shapes uniformly.
///
/// # Errors
///
/// Returns a [`JsonError`] if a marker line is malformed or a body line
/// fails [`parse_jsonl`].
pub fn parse_stream(text: &str) -> Result<Vec<SnapshotFrame>, JsonError> {
    let mut frames: Vec<SnapshotFrame> = Vec::new();
    let mut head: Option<SnapshotFrame> = None;
    let mut body = String::new();
    let flush = |head: &mut Option<SnapshotFrame>,
                     body: &mut String,
                     frames: &mut Vec<SnapshotFrame>|
     -> Result<(), JsonError> {
        if head.is_none() && body.trim().is_empty() {
            return Ok(());
        }
        let mut frame = head.take().unwrap_or_else(|| SnapshotFrame {
            seq: 0,
            label: "snapshot".into(),
            epoch: 0,
            meta: Vec::new(),
            snap: MetricsSnapshot::default(),
        });
        frame.snap = parse_jsonl(body)?;
        body.clear();
        frames.push(frame);
        Ok(())
    };
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Cheap pre-filter before paying for a parse of every line.
        let marker = if trimmed.contains("\"kind\":\"snapshot\"") {
            let v = parse(trimmed)?;
            (v.field("kind")?.as_str()? == "snapshot").then_some(v)
        } else {
            None
        };
        if let Some(v) = marker {
            flush(&mut head, &mut body, &mut frames)?;
            let Marker::Snapshot { name, seq, epoch, meta, .. } = Marker::from_json(&v)?;
            head = Some(SnapshotFrame {
                seq,
                label: name,
                epoch,
                meta,
                snap: MetricsSnapshot::default(),
            });
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    flush(&mut head, &mut body, &mut frames)?;
    Ok(frames)
}

/// A background HTTP server exposing the live telemetry registry in
/// Prometheus text format.
///
/// Listens on the bound address until dropped; each `GET /metrics` (or
/// `GET /`) takes a fresh [`crate::snapshot`] and renders it. Any other
/// path answers 404. The server never mutates telemetry state, so
/// serving cannot perturb the run being observed.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port)
    /// and starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("healthmon-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection; a broken client
                        // costs one handler pass, never the accept loop.
                        let _ = handle_connection(stream);
                    }
                }
            })?;
        Ok(MetricsServer { addr: local, stop, handle: Some(handle) })
    }

    /// The address actually bound (resolves port 0 to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// How long a client has to deliver its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    // One deadline for the whole head, not a timeout re-armed per read: a
    // client trickling a byte at a time would otherwise hold the single
    // accept thread, and with it `MetricsServer::drop`, for as long as it
    // kept sending.
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_write_timeout(Some(HEAD_DEADLINE))?;
    // Read the request head only; this endpoint has no request bodies.
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = if path == "/metrics" || path == "/" {
        ("200 OK", render_prometheus(&crate::snapshot()))
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Stability};
    use crate::testlock;

    fn frame(seq: u64, epoch: u64) -> SnapshotFrame {
        SnapshotFrame {
            seq,
            label: "fleet".into(),
            epoch,
            meta: vec![("healthy".into(), 3.0), ("watch".into(), 1.0)],
            snap: crate::snapshot(),
        }
    }

    #[test]
    fn stream_round_trips_frames() {
        let _g = testlock::exclusive();
        static C: Counter = Counter::new("export.items", Stability::Stable);
        C.add(7);
        let mut text = String::new();
        text.push_str(&render_frame(&frame(0, 1)));
        C.add(1);
        text.push_str(&render_frame(&frame(1, 2)));
        let frames = parse_stream(&text).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[1].epoch, 2);
        assert_eq!(frames[0].meta_value("healthy"), Some(3.0));
        assert_eq!(frames[0].snap.counters[0].value, 7);
        assert_eq!(frames[1].snap.counters[0].value, 8);
    }

    #[test]
    fn plain_single_snapshot_parses_as_one_frame() {
        let _g = testlock::exclusive();
        static C: Counter = Counter::new("export.plain", Stability::Stable);
        C.inc();
        let text = render_jsonl(&crate::snapshot());
        let frames = parse_stream(&text).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].label, "snapshot");
        assert_eq!(frames[0].snap.counters[0].name, "export.plain");
    }

    #[test]
    fn server_serves_prometheus_text() {
        let _g = testlock::exclusive();
        static C: Counter = Counter::new("export.http", Stability::Stable);
        C.add(5);
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("healthmon_export_http 5"));
        // Unknown paths 404 without killing the accept loop.
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));
        drop(server);
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_accept_thread_past_the_deadline() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let start = Instant::now();
        // One byte every 100 ms for 5 s: each read succeeds well inside a
        // per-read timeout, and the head never completes.
        let mut slow = TcpStream::connect(addr).unwrap();
        let trickler = std::thread::spawn(move || {
            for _ in 0..50 {
                if slow.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        // Connections are accepted in arrival order, so this request is
        // served only once the accept thread has given up on the trickler.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));
        drop(server);
        let waited = start.elapsed();
        assert!(
            waited < HEAD_DEADLINE + Duration::from_secs(1),
            "a trickling client held the server for {waited:?}"
        );
        trickler.join().unwrap();
    }
}
