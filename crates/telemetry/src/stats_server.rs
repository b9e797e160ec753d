//! The scrape endpoint: a minimal HTTP/1.0 listener serving the
//! published [`crate::TelemetrySample`] with its gauges read fresh.
//!
//! Routes: `/metrics` returns Prometheus text exposition,
//! `/stats.json` (or `/`) returns the stable-ordered JSON payload.
//! The server reads the already-published sample behind an `RwLock`
//! and overlays the live gauge atomics — a scrape only reads fleet
//! state, so scraping at any rate cannot perturb the run. One handler thread, short per-connection
//! timeouts, `Connection: close`: this is an operator endpoint for
//! `curl`, Prometheus, and `aidft top`, not a general web server.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::Inner;

/// Per-connection read/write timeout.
const CONN_TIMEOUT: Duration = Duration::from_millis(500);

/// The running scrape listener; dropped (or stopped) when the
/// telemetry session finishes.
#[derive(Debug)]
pub(crate) struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop.
    pub(crate) fn bind(addr: &str, inner: Arc<Inner>) -> io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("aidft-stats".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    match conn {
                        Ok(stream) => handle_conn(stream, &inner),
                        // Out of descriptors, say: back off, never spin.
                        Err(_) => thread::sleep(CONN_TIMEOUT),
                    }
                }
            })
            .expect("spawn stats server");
        Ok(StatsServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the resolved port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop: sets the flag, wakes the blocked `accept`
    /// with a self-connect, retried until it lands or the thread exits.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(t) = self.thread.take() {
            while !t.is_finished() && TcpStream::connect(wake).is_err() {
                thread::sleep(Duration::from_millis(1));
            }
            let _ = t.join();
        }
    }
}

/// Serves one request. Any I/O failure just drops the connection —
/// a scraper's problem is never the fleet's problem.
fn handle_conn(stream: TcpStream, inner: &Inner) {
    let _ = serve_one(stream, inner);
}

fn serve_one(mut stream: TcpStream, inner: &Inner) -> io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() >= 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&req);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("GET "))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("")
        .to_owned();

    inner.count_scrape();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            inner.current_sample().to_prometheus(),
        ),
        "/" | "/stats.json" | "/json" => (
            "200 OK",
            "application/json",
            inner.current_sample().to_json(),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            "not found; try /metrics or /stats.json\n".to_owned(),
        ),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// One-shot scrape client: fetches `path` from a stats endpoint and
/// returns the response body. Used by `aidft top`, `aidft fleet-stats`,
/// and the integration suites.
pub fn scrape(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(body.to_owned())
}
