//! Minimal std-only HTTP server for live metrics scrapes and the mining
//! daemon.
//!
//! [`HttpServer`] is the one listener: an arbitrary `Request → Response`
//! handler, one thread per connection (capped, overload answered with an
//! inline 503), and per-connection `catch_unwind` so a panicking handler
//! yields a 500 while the server keeps accepting. `tricluster serve` runs
//! its router on it; `mine --metrics-addr` runs [`scrape_handler`], the
//! read-only `/metrics`, `/progress`, `/healthz` endpoint of a single run.
//!
//! The request parser (`read_request`) enforces the protocol-level
//! robustness rules: the request head is capped (431 instead of unbounded
//! buffering), bodies are read only up to a caller-set limit (413 past
//! it), and only GET/POST/DELETE are admitted (405 otherwise). Dropping
//! the server stops its accept thread deterministically (stop flag +
//! self-connect to unblock `accept`).
//!
//! [`http_get`] is the matching client: just enough HTTP/1.0 to scrape
//! these endpoints without a dependency. [`http_get_retry`] adds bounded
//! retry-with-backoff on connection-refused, for callers racing a
//! just-spawned listener; [`http_post`] / [`http_delete`] round out what
//! `tricluster submit` needs.

use crate::metrics::Registry;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-connection I/O deadline: a stuck client must not wedge a serve
/// thread indefinitely.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on an accepted request head; enough for any client's
/// request line + headers.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Most concurrent connection threads an [`HttpServer`] runs; excess
/// connections get an inline 503 from the accept loop.
const MAX_CONNECTIONS: usize = 32;

/// One parsed HTTP request: method, path (query string stripped), body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, or `DELETE` (anything else is rejected upstream).
    pub method: String,
    /// Request path with any `?query` stripped.
    pub path: String,
    /// Request body (empty unless a `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// One HTTP response: status code, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty = omit the header).
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8".into(),
            body: body.into(),
        }
    }

    /// Serializes the response as HTTP/1.0 onto `stream`.
    fn write_to(self, stream: &mut TcpStream) -> std::io::Result<()> {
        #[cfg(feature = "failpoints")]
        if let Some(msg) = tricluster_failpoint::trigger("serve.response.write") {
            // An injected write fault behaves like a client that vanished
            // mid-response: this response is lost, the serve loop survives.
            return Err(std::io::Error::other(msg));
        }
        let mut head = format!("HTTP/1.0 {} {}\r\n", self.status, reason(self.status));
        if !self.content_type.is_empty() {
            head.push_str(&format!("Content-Type: {}\r\n", self.content_type));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        ));
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes this crate emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Reads and parses one request from `stream`.
///
/// Protocol-level rejections come back as `Err(Response)` for the caller
/// to write: 431 when the head outgrows `MAX_REQUEST_BYTES`, 400 on a
/// malformed request line or `Content-Length`, 405 for any method other
/// than GET/POST/DELETE, 413 when the declared body exceeds `max_body`.
/// `Ok(None)` means the client closed before sending a full head.
fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Option<Request>, Response> {
    let io_reject = |_| Response::text(400, "request read failed\n");
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(i) = find_head_end(&head) {
            break i;
        }
        if head.len() > MAX_REQUEST_BYTES {
            return Err(Response::text(431, "request head too large\n"));
        }
        let n = stream.read(&mut buf).map_err(io_reject)?;
        if n == 0 {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(Response::text(400, "truncated request head\n"));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let mut body = head.split_off(split + 4);
    let head = String::from_utf8_lossy(&head);
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let (method, raw_path) = match (request_line.next(), request_line.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return Err(Response::text(400, "malformed request line\n")),
    };
    if !["GET", "POST", "DELETE"].contains(&method) {
        return Err(Response::text(405, "allowed methods: GET, POST, DELETE\n"));
    }
    let content_length = head
        .lines()
        .skip(1)
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>())
        })
        .transpose()
        .map_err(|_| Response::text(400, "malformed Content-Length\n"))?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(Response::text(413, "request body too large\n"));
    }
    body.truncate(content_length); // pipelined bytes past the body are ignored
    while body.len() < content_length {
        let n = stream.read(&mut buf).map_err(io_reject)?;
        if n == 0 {
            return Err(Response::text(400, "truncated request body\n"));
        }
        let want = content_length - body.len();
        body.extend_from_slice(&buf[..n.min(want)]);
    }
    // Clients may append query strings (`/metrics?format=...`); route on
    // the path alone.
    let path = raw_path.split('?').next().unwrap_or(raw_path).to_owned();
    Ok(Some(Request {
        method: method.to_owned(),
        path,
        body,
    }))
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Unblocks a listener's `accept` with one throwaway connection; an
/// unspecified bind address (0.0.0.0) is dialed back via loopback.
fn connect_back(mut dial: SocketAddr) -> std::io::Result<TcpStream> {
    if dial.ip().is_unspecified() {
        dial.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    TcpStream::connect_timeout(&dial, IO_TIMEOUT)
}

/// The read-only scrape endpoint of one run's `registry`: `GET /metrics`
/// (OpenMetrics text), `GET /progress` (the run's progress document, 404
/// while the registry holds no progress gauges), and `GET /healthz`. Serve
/// it with `max_body` 0 — the routes take no body.
pub fn scrape_handler(registry: Arc<Registry>) -> Handler {
    Arc::new(move |request: Request| {
        if request.method != "GET" {
            return Response::text(405, "scrape endpoints are GET-only\n");
        }
        match request.path.as_str() {
            "/metrics" => Response {
                status: 200,
                content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8".into(),
                body: registry.render_openmetrics(&[]),
            },
            "/progress" => match registry.progress_json() {
                Some(doc) => Response::json(200, doc.render() + "\n"),
                None => Response::text(404, "no progress gauges attached\n"),
            },
            "/healthz" => Response::text(200, "ok\n"),
            _ => Response::text(404, "unknown path; try /metrics, /progress, or /healthz\n"),
        }
    })
}

/// A shareable `Request → Response` handler.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A generic HTTP/1.0 listener for long-lived daemons.
///
/// Each accepted connection is parsed (`read_request`) and handled on
/// its own thread, so one slow client cannot wedge the daemon; at most
/// `MAX_CONNECTIONS` run at once (the accept loop answers excess
/// connections 503 inline). The handler runs behind `catch_unwind`: a
/// panic becomes a 500 response and the daemon keeps serving. Dropping
/// the server stops the accept thread and waits (bounded by the I/O
/// timeouts) for in-flight connection threads.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and serves `handler`; request bodies beyond
    /// `max_body` bytes are rejected 413 before the handler runs.
    pub fn serve(addr: &str, max_body: usize, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let thread_stop = stop.clone();
        let thread_active = active.clone();
        let handle = std::thread::Builder::new()
            .name("serve-httpd".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if thread_active.load(Ordering::Acquire) >= MAX_CONNECTIONS {
                        // Shed load without spawning: the 503 is written
                        // from the accept loop (cheap, bounded by the
                        // write timeout).
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        let _ = Response::json(503, "{\"error\":\"overloaded\"}\n")
                            .write_to(&mut stream);
                        continue;
                    }
                    thread_active.fetch_add(1, Ordering::AcqRel);
                    let handler = handler.clone();
                    let active = thread_active.clone();
                    let spawned =
                        std::thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || {
                                let _ = handle_generic_conn(stream, max_body, &handler);
                                active.fetch_sub(1, Ordering::AcqRel);
                            });
                    if spawned.is_err() {
                        // Could not spawn (resource exhaustion): undo the
                        // count; the connection drops, the daemon lives.
                        thread_active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            })?;
        Ok(HttpServer {
            addr,
            stop,
            active,
            handle: Some(handle),
        })
    }

    /// The actually bound address (resolves a requested port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL, e.g. `http://127.0.0.1:37012`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = connect_back(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // Give in-flight connection threads (each bounded by IO_TIMEOUT)
        // a chance to finish writing before the process moves on.
        let deadline = std::time::Instant::now() + IO_TIMEOUT;
        while self.active.load(Ordering::Acquire) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn handle_generic_conn(
    mut stream: TcpStream,
    max_body: usize,
    handler: &Handler,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = match read_request(&mut stream, max_body) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()),
        Err(response) => return response.write_to(&mut stream),
    };
    let response = match catch_unwind(AssertUnwindSafe(|| handler(request))) {
        Ok(response) => response,
        // The handler's own isolation failed; degrade to a structured 500
        // and keep the daemon alive.
        Err(_) => Response::json(500, "{\"error\":\"internal\"}\n"),
    };
    response.write_to(&mut stream)
}

/// Plain HTTP/1.0 GET. Accepts `http://HOST:PORT/path` or `HOST:PORT/path`
/// and returns `(status, body)`. Only as much HTTP as the endpoints above
/// speak — enough for `tricluster watch` and shell smoke tests to scrape
/// without external tooling.
pub fn http_get(url: &str) -> Result<(u16, String), String> {
    http_request(url, "GET", "", b"")
}

/// Outcome of one [`http_get_retry`] call: the final response or error,
/// plus how much retrying it took to get there — so callers polling a
/// daemon (`submit --wait`, `watch`) can report startup races instead of
/// silently absorbing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryResult {
    /// The final `(status, body)`, or the last attempt's error.
    pub outcome: Result<(u16, String), String>,
    /// Connection attempts actually made (1 = first try resolved it).
    pub attempts: u32,
    /// Total time slept between attempts.
    pub total_backoff: Duration,
}

impl RetryResult {
    /// Collapses to the plain result, discarding the retry telemetry.
    pub fn into_result(self) -> Result<(u16, String), String> {
        self.outcome
    }
}

/// [`http_get`] with bounded retry on connection-refused: `attempts`
/// tries total, sleeping `backoff` then doubling between tries. This
/// closes the race against a just-spawned listener whose bind has not
/// landed yet — any response (or a non-refused error) returns
/// immediately. The returned [`RetryResult`] carries the attempt count
/// and total backoff alongside the response.
pub fn http_get_retry(url: &str, attempts: u32, backoff: Duration) -> RetryResult {
    let mut delay = backoff;
    let mut made = 0u32;
    let mut total_backoff = Duration::ZERO;
    let mut last = Err("no attempts".to_owned());
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(delay);
            total_backoff += delay;
            delay = delay.saturating_mul(2);
        }
        made = attempt + 1;
        last = http_get(url);
        match &last {
            Err(e) if e.contains("cannot connect") => continue,
            _ => break,
        }
    }
    RetryResult {
        outcome: last,
        attempts: made,
        total_backoff,
    }
}

/// Plain HTTP/1.0 POST of `body` with the given `Content-Type`.
pub fn http_post(url: &str, content_type: &str, body: &[u8]) -> Result<(u16, String), String> {
    http_request(url, "POST", content_type, body)
}

/// Plain HTTP/1.0 DELETE.
pub fn http_delete(url: &str) -> Result<(u16, String), String> {
    http_request(url, "DELETE", "", b"")
}

fn http_request(
    url: &str,
    method: &str,
    content_type: &str,
    body: &[u8],
) -> Result<(u16, String), String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let addr = authority
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {authority}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {authority}: no addresses"))?;
    // An injected connect fault looks exactly like connection-refused, so
    // the retry loop above treats it as a startup race.
    #[cfg(feature = "failpoints")]
    if let Some(msg) = tricluster_failpoint::trigger("httpd.client.connect") {
        return Err(format!("cannot connect to {authority}: {msg}"));
    }
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("cannot connect to {authority}: {e}"))?;
    let io_err = |e: std::io::Error| format!("http error talking to {authority}: {e}");
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
    let mut head = format!("{method} {path} HTTP/1.0\r\nHost: {authority}\r\n");
    if !content_type.is_empty() {
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).map_err(io_err)?;
    stream.write_all(body).map_err(io_err)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io_err)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed response from {authority}: {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::progress::Phase;
    use crate::{EventSink, Gauge};
    use std::sync::Mutex;

    /// Client calls trip the process-global `httpd.client.connect`
    /// failpoint that one test arms, so tests making them run one at a
    /// time.
    static CLIENT: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        CLIENT.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn scrape_server(addr: &str, registry: Arc<Registry>) -> std::io::Result<HttpServer> {
        HttpServer::serve(addr, 0, scrape_handler(registry))
    }

    fn served_registry() -> (HttpServer, Arc<Registry>) {
        let registry = Arc::new(Registry::for_run());
        let server =
            scrape_server("127.0.0.1:0", registry.clone()).expect("bind an ephemeral port");
        (server, registry)
    }

    #[test]
    fn serves_metrics_progress_and_healthz() {
        let _serial = serial();
        let (server, registry) = served_registry();
        let sink: &dyn EventSink = &*registry;
        sink.counter(names::TC_RECORDED, 7);
        sink.gauge(names::G_PHASE, Gauge::Set(Phase::Prune as u64));

        let (status, body) = http_get(&format!("{}/healthz", server.url())).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(&format!("{}/metrics", server.url())).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("tricluster_tricluster_recorded_total 7"),
            "{body}"
        );
        assert!(body.ends_with("# EOF\n"), "{body}");

        let (status, body) = http_get(&format!("{}/progress", server.url())).unwrap();
        assert_eq!(status, 200);
        let snap = crate::json::Json::parse(body.trim()).expect("valid JSON body");
        assert_eq!(
            snap.get_path(&["progress", "phase"])
                .and_then(|v| v.as_str()),
            Some("prune")
        );
    }

    #[test]
    fn unknown_paths_404_and_non_get_405() {
        let _serial = serial();
        let (server, _registry) = served_registry();
        let (status, _) = http_get(&format!("{}/nope", server.url())).unwrap();
        assert_eq!(status, 404);
        // Query strings are routed on the path alone.
        let (status, _) = http_get(&format!("{}/healthz?verbose=1", server.url())).unwrap();
        assert_eq!(status, 200);
        // A hand-written POST gets 405 (scrape endpoints are GET-only).
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }

    #[test]
    fn oversize_request_head_is_rejected_431() {
        let _serial = serial();
        let (server, _registry) = served_registry();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.0\r\n").unwrap();
        let filler = format!("X-Filler: {}\r\n", "y".repeat(1000));
        for _ in 0..16 {
            // Past MAX_REQUEST_BYTES the server must answer without ever
            // seeing the end of this head.
            if stream.write_all(filler.as_bytes()).is_err() {
                break; // server already responded and closed
            }
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.0 431"), "{response}");
    }

    #[test]
    fn unknown_method_is_rejected_405() {
        let _serial = serial();
        let (server, _registry) = served_registry();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"BREW /coffee HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }

    #[test]
    fn progress_endpoint_404s_without_gauges() {
        let _serial = serial();
        let registry = Arc::new(Registry::new());
        let server = scrape_server("127.0.0.1:0", registry).unwrap();
        let (status, _) = http_get(&format!("{}/progress", server.url())).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let (server, _registry) = served_registry();
        let addr = server.local_addr();
        drop(server);
        // The port is released: a fresh connect must fail (or be refused
        // fast), and a new server can re-bind the same address.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
        let registry = Arc::new(Registry::new());
        let rebound = scrape_server(&addr.to_string(), registry).expect("address released");
        assert_eq!(rebound.local_addr(), addr);
    }

    #[test]
    fn http_get_rejects_unreachable_and_malformed_targets() {
        let _serial = serial();
        assert!(http_get("definitely not a url").is_err());
        // A released ephemeral port: connection refused surfaces as Err.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(http_get(&format!("http://{addr}/metrics")).is_err());
    }

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: Request| match req.path.as_str() {
            "/panic" => panic!("handler exploded"),
            _ => Response::text(
                200,
                format!(
                    "{} {} {}\n",
                    req.method,
                    req.path,
                    String::from_utf8_lossy(&req.body)
                ),
            ),
        });
        HttpServer::serve("127.0.0.1:0", 64, handler).expect("bind an ephemeral port")
    }

    #[test]
    fn generic_server_routes_get_post_delete() {
        let _serial = serial();
        let server = echo_server();
        let (status, body) = http_get(&format!("{}/a?q=1", server.url())).unwrap();
        assert_eq!((status, body.as_str()), (200, "GET /a \n"));
        let (status, body) =
            http_post(&format!("{}/b", server.url()), "text/plain", b"hi").unwrap();
        assert_eq!((status, body.as_str()), (200, "POST /b hi\n"));
        let (status, body) = http_delete(&format!("{}/c", server.url())).unwrap();
        assert_eq!((status, body.as_str()), (200, "DELETE /c \n"));
    }

    #[test]
    fn oversize_body_is_rejected_413_before_the_handler() {
        let _serial = serial();
        let server = echo_server();
        let big = vec![b'x'; 65];
        let (status, _) = http_post(&format!("{}/b", server.url()), "text/plain", &big).unwrap();
        assert_eq!(status, 413);
        // The daemon still serves after the rejection.
        let (status, _) = http_get(&format!("{}/ok", server.url())).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn handler_panic_becomes_500_and_daemon_survives() {
        let _serial = serial();
        let server = echo_server();
        let (status, body) = http_get(&format!("{}/panic", server.url())).unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("internal"), "{body}");
        let (status, _) = http_get(&format!("{}/still-up", server.url())).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn generic_server_drop_releases_the_port() {
        let server = echo_server();
        let addr = server.local_addr();
        drop(server);
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn http_get_retry_waits_out_a_late_listener() {
        let _serial = serial();
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        // Nothing listening yet: a plain get refuses immediately, the
        // retrying get keeps trying until the server appears.
        assert!(http_get(&format!("http://{addr}/healthz")).is_err());
        let spawner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let registry = Arc::new(Registry::new());
            scrape_server(&addr.to_string(), registry).expect("rebind the probed address")
        });
        let retry = http_get_retry(
            &format!("http://{addr}/healthz"),
            8,
            Duration::from_millis(40),
        );
        let (status, body) = retry
            .outcome
            .as_ref()
            .expect("retry outlasts the startup race");
        assert_eq!((*status, body.as_str()), (200, "ok\n"));
        assert!(retry.attempts > 1, "the race forced at least one retry");
        assert!(retry.total_backoff >= Duration::from_millis(40));
        drop(spawner.join().unwrap());
    }

    #[test]
    fn http_get_retry_gives_up_after_bounded_attempts() {
        let _serial = serial();
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let start = std::time::Instant::now();
        let retry = http_get_retry(
            &format!("http://{addr}/healthz"),
            3,
            Duration::from_millis(10),
        );
        let err = retry.outcome.unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        // 3 attempts with 10+20 ms of backoff, not an unbounded spin.
        assert_eq!(retry.attempts, 3);
        assert_eq!(retry.total_backoff, Duration::from_millis(30));
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// Satellite: the retry loop is bounded and its telemetry exact even
    /// when every refusal is injected — `configure_times` makes the first
    /// N connects fail deterministically, with a live server behind them.
    #[cfg(feature = "failpoints")]
    #[test]
    fn http_get_retry_is_bounded_under_injected_connect_faults() {
        let _serial = serial();
        use tricluster_failpoint::{configure, configure_times, scenario, Action};
        let _guard = scenario();
        let (server, _registry) = served_registry();

        // Two injected refusals, then the real server answers: exactly
        // three attempts, backoff 5+10 ms.
        configure_times("httpd.client.connect", Action::Error, 2);
        let retry = http_get_retry(
            &format!("{}/healthz", server.url()),
            8,
            Duration::from_millis(5),
        );
        assert_eq!(retry.attempts, 3);
        assert_eq!(retry.total_backoff, Duration::from_millis(15));
        assert_eq!(
            retry.outcome.as_ref().map(|(s, _)| *s).ok(),
            Some(200),
            "{:?}",
            retry.outcome
        );

        // Unbounded refusals: the loop gives up at its attempt budget
        // instead of spinning, and still reports what it spent.
        configure("httpd.client.connect", Action::Error);
        let retry = http_get_retry(
            &format!("{}/healthz", server.url()),
            3,
            Duration::from_millis(1),
        );
        assert_eq!(retry.attempts, 3);
        assert_eq!(retry.total_backoff, Duration::from_millis(3));
        let err = retry.outcome.unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }
}
